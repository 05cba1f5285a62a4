package hilight_test

import (
	"fmt"

	"hilight"
)

// ExampleCompile maps a GHZ chain: the CX chain serializes, one cycle
// per gate, and the pattern-matched linear layout keeps every braid on a
// shared tile corner (one occupied routing vertex per braid).
func ExampleCompile() {
	c := hilight.GHZ(5)
	g := hilight.RectGrid(c.NumQubits)
	res, err := hilight.Compile(c, g)
	if err != nil {
		panic(err)
	}
	fmt.Println("latency:", res.Latency)
	fmt.Println("path length:", res.PathLen)
	// Output:
	// latency: 4
	// path length: 4
}

// ExampleCompile_methods compares HiLight with the AutoBraid baseline on
// the same workload.
func ExampleCompile_methods() {
	c := hilight.BV(10)
	g := hilight.RectGrid(c.NumQubits)
	for _, m := range []string{"hilight-map", "autobraid-sp"} {
		res, err := hilight.Compile(c, g, hilight.WithMethod(m))
		if err != nil {
			panic(err)
		}
		// BV's CX star serializes under any method: latency 9.
		fmt.Printf("%s: latency %d\n", m, res.Latency)
	}
	// Output:
	// hilight-map: latency 9
	// autobraid-sp: latency 9
}

// ExampleParseQASM round-trips an OpenQASM 2.0 program through the IR.
func ExampleParseQASM() {
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
cx q[0],q[1];
`
	c, err := hilight.ParseQASM("bell", src)
	if err != nil {
		panic(err)
	}
	fmt.Println(c.NumQubits, "qubits,", c.Len(), "gates")
	// Output:
	// 2 qubits, 2 gates
}

// ExampleOptimizeProgram shows the Fig. 6 commuting-CX reordering
// shrinking circuit depth.
func ExampleOptimizeProgram() {
	c := hilight.NewCircuit("fan", 4)
	c.Add2(hilight.CX, 0, 1)
	c.Add2(hilight.CX, 0, 2)
	c.Add2(hilight.CX, 3, 2) // shares target with the previous CX: commutes

	res1, _ := hilight.Compile(c, hilight.SquareGrid(4), hilight.WithMethod("hilight-map"))
	res2, _ := hilight.Compile(c, hilight.SquareGrid(4), hilight.WithMethod("hilight-pg"))
	fmt.Println("without QCO:", res1.Latency)
	fmt.Println("with QCO:   ", res2.Latency)
	// Output:
	// without QCO: 3
	// with QCO:    2
}

// ExampleRenderLayout draws a 2×2 grid with one reserved factory tile.
func ExampleRenderLayout() {
	g := hilight.SquareGrid(3) // 2×2
	g.ReserveTile(3)
	c := hilight.GHZ(3)
	res, err := hilight.Compile(c, g)
	if err != nil {
		panic(err)
	}
	fmt.Print(hilight.RenderLayout(g, res.Schedule.Initial))
}
