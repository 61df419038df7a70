package lib

import "testing"

func TestUnused(t *testing.T) {
	if Unused() != 1 {
		t.Fatal("Unused")
	}
}
