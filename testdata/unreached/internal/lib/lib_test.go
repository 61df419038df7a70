package lib

import "testing"

func TestUnused(t *testing.T) {
	if Unused() != 1 || Large != 1 || Spare != 4 || (Shape{}) != (Shape{}) {
		t.Fatal("Unused")
	}
	if c := (Config{Idle: 1}); c.Idle != 1 {
		t.Fatal("Idle")
	}
}
