// Package lib exports one symbol of each kind the testonly analyzer
// judges.
package lib

// Used is called from the sibling package user.
func Used() int { return helper() + Limit }

func helper() int { return len(Names) }

// Names is read by helper: a use in its own package counts.
var Names = []string{"a"}

// Kept is built by user through NewKept.
type Kept struct{ n int }

func NewKept() *Kept { return &Kept{} }

func (k *Kept) Len() int { return k.n }

// Reset is never called, but methods are never flagged.
func (k *Kept) Reset() { k.n = 0 }

// Consts are never flagged, used or not.
const (
	Limit = 2
	Spare = 3
)

func Unused() {} // want "lib\\.Unused has no use outside tests"

type UnusedType struct{} // want "lib\\.UnusedType has no use outside tests"

var UnusedVar = 1 // want "lib\\.UnusedVar has no use outside tests"

// OnlyTests is called from lib_test.go alone.
func OnlyTests() int { return 4 } // want "lib\\.OnlyTests has no use outside tests"

// Recursive calls only itself.
func Recursive(n int) int { // want "lib\\.Recursive has no use outside tests"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// OnlyMethods is named only by its own methods' receivers.
type OnlyMethods struct{} // want "lib\\.OnlyMethods has no use outside tests"

func (OnlyMethods) Name() string { return "m" }
