// Package user is a sibling non-test package: its calls keep lib's
// symbols in use.
package user

import "testonly/internal/lib"

func Run() int { return lib.Used() + lib.NewKept().Len() }
