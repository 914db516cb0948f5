// Package libtest is test support: its name ends in "test", so its
// exports are for tests and are never flagged.
package libtest

func Fixture() int { return 1 }
