// Command tool is the fixture module's program; what it reaches is in
// use.
package main

import "testonly/internal/user"

func main() { println(user.Run()) }

// Exported lies outside internal/, so its callers are not checked.
func Exported() {}
