package main

import (
	"strings"
	"testing"
)

// TestCounterLines pins the example's four counter lines.  isasim is
// the one caller of cpu.Walk outside package kernels and nothing else
// runs it, so a change to the walk or the core that moves its output
// shows here.
func TestCounterLines(t *testing.T) {
	var got strings.Builder
	compare(&got, buildProgram(false), buildProgram(true))
	want := `branchy, stock POWER5         592638 cycles  IPC 0.25  branches  40001  mispredicts  9994  taken-bubbles  24890
branchy + BTAC                569855 cycles  IPC 0.26  branches  40001  mispredicts  9994  taken-bubbles      2
max instruction               365010 cycles  IPC 0.33  branches  20001  mispredicts     2  taken-bubbles  19999
max + BTAC + 4 FXUs           322512 cycles  IPC 0.37  branches  20001  mispredicts     2  taken-bubbles      2
`
	if got.String() != want {
		t.Errorf("counter lines changed\n got:\n%s want:\n%s", got.String(), want)
	}
}
