package aig

import (
	"bytes"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestLitBasics(t *testing.T) {
	l := MakeLit(5, false)
	if l.Var() != 5 || l.IsNeg() {
		t.Fatalf("MakeLit(5,false) = %v", l)
	}
	if n := l.Not(); n.Var() != 5 || !n.IsNeg() {
		t.Fatalf("Not() = %v", n)
	}
	if l.Not().Not() != l {
		t.Fatal("double negation is not identity")
	}
	if l.NotIf(false) != l || l.NotIf(true) != l.Not() {
		t.Fatal("NotIf misbehaves")
	}
	if l.Not().Reg() != l {
		t.Fatal("Reg should strip complement")
	}
	if False.Not() != True || True.Not() != False {
		t.Fatal("constant literals are not complements")
	}
}

func TestAndConstantFolding(t *testing.T) {
	g := New("fold")
	a := g.AddInput("a")
	cases := []struct {
		x, y, want Lit
		name       string
	}{
		{False, a, False, "0&a"},
		{a, False, False, "a&0"},
		{True, a, a, "1&a"},
		{a, True, a, "a&1"},
		{a, a, a, "a&a"},
		{a, a.Not(), False, "a&!a"},
		{a.Not(), a, False, "!a&a"},
	}
	for _, c := range cases {
		if got := g.And(c.x, c.y); got != c.want {
			t.Errorf("%s: got %v want %v", c.name, got, c.want)
		}
	}
	if g.NumAnds() != 0 {
		t.Fatalf("folding created %d AND nodes", g.NumAnds())
	}
}

func TestStructuralHashing(t *testing.T) {
	g := New("strash")
	a := g.AddInput("a")
	b := g.AddInput("b")
	x := g.And(a, b)
	y := g.And(b, a) // commuted
	if x != y {
		t.Fatal("strashing missed commuted AND")
	}
	z := g.And(a.Not(), b)
	if z == x {
		t.Fatal("distinct AND collapsed")
	}
	if g.NumAnds() != 2 {
		t.Fatalf("NumAnds = %d, want 2", g.NumAnds())
	}
}

func TestXorMuxTruthTables(t *testing.T) {
	g := New("tt")
	a := g.AddInput("a")
	b := g.AddInput("b")
	s := g.AddInput("s")
	g.AddOutput(g.Xor(a, b), "xor")
	g.AddOutput(g.Xnor(a, b), "xnor")
	g.AddOutput(g.Mux(s, a, b), "mux")
	g.AddOutput(g.Maj(a, b, s), "maj")

	sim := NewSimulator(g)
	// Exhaustive 8-row truth table packed into the low bits of the words.
	// Bit i of each word corresponds to assignment i = (a,b,s) bits.
	var wa, wb, ws uint64
	for i := 0; i < 8; i++ {
		if i&1 != 0 {
			wa |= 1 << i
		}
		if i&2 != 0 {
			wb |= 1 << i
		}
		if i&4 != 0 {
			ws |= 1 << i
		}
	}
	out := sim.Run([]uint64{wa, wb, ws})
	mask := uint64(0xff)
	if got, want := out[0]&mask, (wa^wb)&mask; got != want {
		t.Errorf("xor: got %08b want %08b", got, want)
	}
	if got, want := out[1]&mask, (^(wa ^ wb))&mask; got != want {
		t.Errorf("xnor: got %08b want %08b", got, want)
	}
	if got, want := out[2]&mask, ((ws&wa)|(^ws&wb))&mask; got != want {
		t.Errorf("mux: got %08b want %08b", got, want)
	}
	if got, want := out[3]&mask, ((wa&wb)|(wa&ws)|(wb&ws))&mask; got != want {
		t.Errorf("maj: got %08b want %08b", got, want)
	}
}

func TestAndNOrNDepth(t *testing.T) {
	g := New("depth")
	var ls []Lit
	for i := 0; i < 64; i++ {
		ls = append(ls, g.AddInput(""))
	}
	g.AddOutput(g.AndN(ls), "and64")
	if d := g.Depth(); d != 6 {
		t.Fatalf("balanced AndN(64) depth = %d, want 6", d)
	}
	if g.AndN(nil) != True {
		t.Fatal("AndN(nil) != True")
	}
	if g.OrN(nil) != False {
		t.Fatal("OrN(nil) != False")
	}
	if g.AndN(ls[:1]) != ls[0] || g.OrN(ls[:1]) != ls[0] {
		t.Fatal("single-element reduction is not identity")
	}
}

func TestLevelsAndFanouts(t *testing.T) {
	g := New("lv")
	a := g.AddInput("a")
	b := g.AddInput("b")
	x := g.And(a, b)
	y := g.And(x, b.Not())
	g.AddOutput(y, "y")
	lv := g.Levels()
	if lv[a.Var()] != 0 || lv[x.Var()] != 1 || lv[y.Var()] != 2 {
		t.Fatalf("levels = %v", lv)
	}
	fo := g.FanoutCounts()
	if fo[b.Var()] != 2 {
		t.Fatalf("fanout(b) = %d, want 2", fo[b.Var()])
	}
	if fo[y.Var()] != 1 {
		t.Fatalf("fanout(y) = %d, want 1 (the output)", fo[y.Var()])
	}
	h := g.LevelHistogram()
	if h[1] != 1 || h[2] != 1 {
		t.Fatalf("level histogram = %v", h)
	}
	if sl := g.SortedLevels(); len(sl) != 2 || sl[0] != 1 || sl[1] != 2 {
		t.Fatalf("sorted levels = %v", sl)
	}
}

func TestSweepRemovesDanglingNodes(t *testing.T) {
	g := New("sweep")
	a := g.AddInput("a")
	b := g.AddInput("b")
	used := g.And(a, b)
	g.And(a.Not(), b.Not()) // dangling
	g.AddOutput(used, "f")
	if g.NumAnds() != 2 {
		t.Fatalf("precondition: NumAnds = %d", g.NumAnds())
	}
	sw, _ := g.Sweep()
	if sw.NumAnds() != 1 {
		t.Fatalf("after sweep NumAnds = %d, want 1", sw.NumAnds())
	}
	if sw.NumInputs() != 2 || sw.NumOutputs() != 1 {
		t.Fatalf("sweep changed I/O: %v", sw.Stats())
	}
	if !Equivalent(g, sw, 1, 8) {
		t.Fatal("sweep changed function")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := New("orig")
	a := g.AddInput("a")
	b := g.AddInput("b")
	g.AddOutput(g.And(a, b), "f")
	c := g.Clone()
	c.AddOutput(g.Or(a, b), "g")
	if g.NumOutputs() != 1 {
		t.Fatal("clone mutation leaked into original outputs")
	}
	if !Equivalent(g, g.Clone(), 7, 4) {
		t.Fatal("clone not equivalent to original")
	}
}

func buildAdder(t *testing.T, width int) *Graph {
	t.Helper()
	g := New("adder")
	as := make([]Lit, width)
	bs := make([]Lit, width)
	for i := 0; i < width; i++ {
		as[i] = g.AddInput("")
	}
	for i := 0; i < width; i++ {
		bs[i] = g.AddInput("")
	}
	carry := False
	for i := 0; i < width; i++ {
		sum := g.Xor(g.Xor(as[i], bs[i]), carry)
		carry = g.Maj(as[i], bs[i], carry)
		g.AddOutput(sum, "")
	}
	g.AddOutput(carry, "cout")
	return g
}

func TestAdderFunctional(t *testing.T) {
	const width = 8
	g := buildAdder(t, width)
	sim := NewSimulator(g)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		a := rng.Intn(1 << width)
		b := rng.Intn(1 << width)
		in := make([]uint64, 2*width)
		for i := 0; i < width; i++ {
			if a>>i&1 == 1 {
				in[i] = ^uint64(0)
			}
			if b>>i&1 == 1 {
				in[width+i] = ^uint64(0)
			}
		}
		out := sim.Run(in)
		got := 0
		for i := 0; i <= width; i++ {
			if out[i]&1 == 1 {
				got |= 1 << i
			}
		}
		if got != a+b {
			t.Fatalf("adder(%d,%d) = %d, want %d", a, b, got, a+b)
		}
	}
}

func TestAigerRoundTrip(t *testing.T) {
	g := buildAdder(t, 6)
	g.Name = "adder6"
	var buf bytes.Buffer
	if err := g.WriteASCII(&buf); err != nil {
		t.Fatalf("WriteASCII: %v", err)
	}
	h, err := ReadASCII(&buf)
	if err != nil {
		t.Fatalf("ReadASCII: %v", err)
	}
	if h.Name != "adder6" {
		t.Errorf("name lost: %q", h.Name)
	}
	if h.NumInputs() != g.NumInputs() || h.NumOutputs() != g.NumOutputs() {
		t.Fatalf("I/O mismatch after round trip: %v vs %v", h.Stats(), g.Stats())
	}
	if !Equivalent(g, h, 99, 16) {
		t.Fatal("round trip changed function")
	}
}

// badAigerInputs are streams ReadASCII must refuse with an error; they
// also seed FuzzReadASCII.
var badAigerInputs = []string{
	"",
	"aig 1 1 0 0 0\n2\n",          // binary header keyword
	"aag 1 1 9 0 0\n2\n",          // latches
	"aag 0 1 0 0 0\n2\n",          // header var count too small
	"aag 2 1 0 1 1\n2\n",          // truncated
	"aag 2 1 0 0 1\n2\n5 2 2\n",   // complemented AND lhs
	"aag 2 1 0 0 0\n3\n",          // complemented input
	"aag x 1 0 0 0\n2\n",          // non-numeric header
	"aag 2 1 0 1 1\n2\n4\nx y\n",  // bad AND line
	"aag 0 0 0 0 0\n0 ",           // symbol line without an index (used to panic)
	"aag 0 0 0 55555555550 0\n00", // output count no stream holds (was a fatal out-of-memory)
	"aag 9223372036854775807 9223372036854775807 0 0 9223372036854775807\n2\n", // inputs + ands overflow int
}

func TestAigerRejectsBadInput(t *testing.T) {
	for i, src := range badAigerInputs {
		if _, err := ReadASCII(bytes.NewReader([]byte(src))); err == nil {
			t.Errorf("case %d: expected error for %q", i, src)
		}
	}
}

// TestAigerHeaderCountsDoNotSizeAllocations: header counts far beyond
// what the stream holds must neither crash the reader nor reserve
// memory in proportion to the claim.
func TestAigerHeaderCountsDoNotSizeAllocations(t *testing.T) {
	cases := []struct {
		src     string
		ok      bool
		inputs  int
		outputs int
	}{
		// maxVar+1 used to overflow int.
		{"aag 9223372036854775807 1 0 1 0\n2\n3\n", true, 1, 1},
		// A sparse variable index near a 1e10 maximum.
		{"aag 10000000000 1 0 1 1\n2\n20000000001\n20000000000 2 2\n", true, 1, 1},
		// Input, output and AND counts no stream holds.
		{"aag 30000000000 10000000000 0 0 0\n2\n4\n", false, 0, 0},
		{"aag 30000000000 0 0 0 10000000000\n2 0 0\n", false, 0, 0},
	}
	for i, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := ReadASCII(strings.NewReader(c.src))
		runtime.ReadMemStats(&after)
		if (err == nil) != c.ok {
			t.Fatalf("case %d: err = %v, want ok=%v", i, err, c.ok)
		}
		if c.ok && (g.NumInputs() != c.inputs || g.NumOutputs() != c.outputs) {
			t.Fatalf("case %d: %d inputs / %d outputs, want %d / %d", i, g.NumInputs(), g.NumOutputs(), c.inputs, c.outputs)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Fatalf("case %d: reading %d bytes allocated %d bytes", i, len(c.src), grew)
		}
	}
}

// FuzzReadASCII: the reader never panics, and any stream it accepts
// re-serializes to a fixed point: Write(Read(Write(g))) == Write(g).
func FuzzReadASCII(f *testing.F) {
	for _, src := range badAigerInputs {
		f.Add([]byte(src))
	}
	g := New("seed")
	a, b, c := g.AddInput("a"), g.AddInput("b"), g.AddInput("c")
	g.AddOutput(g.Or(g.And(a, b), c.Not()), "f")
	g.AddOutput(g.And(a, c), "")
	var seed bytes.Buffer
	if err := g.WriteASCII(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadASCII(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := g.WriteASCII(&first); err != nil {
			t.Fatal(err)
		}
		g2, err := ReadASCII(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written graph: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := g2.WriteASCII(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write is not a fixed point:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}

func TestSignatureDetectsDifference(t *testing.T) {
	g := New("and")
	a := g.AddInput("a")
	b := g.AddInput("b")
	g.AddOutput(g.And(a, b), "f")

	h := New("or")
	a2 := h.AddInput("a")
	b2 := h.AddInput("b")
	h.AddOutput(h.Or(a2, b2), "f")

	if Equivalent(g, h, 3, 4) {
		t.Fatal("AND and OR reported equivalent")
	}
	if !Equivalent(g, g, 3, 4) {
		t.Fatal("graph not equivalent to itself")
	}
	one := New("one")
	one.AddInput("a")
	if Equivalent(g, one, 3, 4) {
		t.Fatal("graphs with different I/O reported equivalent")
	}
}

// Property: DeMorgan — !(a & b) == !a | !b for random 64-pattern words.
func TestQuickDeMorgan(t *testing.T) {
	f := func(wa, wb uint64) bool {
		g := New("dm")
		a := g.AddInput("a")
		b := g.AddInput("b")
		g.AddOutput(g.And(a, b).Not(), "nand")
		g.AddOutput(g.Or(a.Not(), b.Not()), "demorgan")
		out := NewSimulator(g).Run([]uint64{wa, wb})
		return out[0] == out[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Xor is associative under simulation.
func TestQuickXorAssociative(t *testing.T) {
	f := func(wa, wb, wc uint64) bool {
		g := New("assoc")
		a := g.AddInput("a")
		b := g.AddInput("b")
		c := g.AddInput("c")
		g.AddOutput(g.Xor(g.Xor(a, b), c), "l")
		g.AddOutput(g.Xor(a, g.Xor(b, c)), "r")
		out := NewSimulator(g).Run([]uint64{wa, wb, wc})
		return out[0] == out[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Sweep preserves the function of randomly built graphs.
func TestQuickSweepPreservesFunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New("rand")
		lits := []Lit{}
		for i := 0; i < 6; i++ {
			lits = append(lits, g.AddInput(""))
		}
		for i := 0; i < 40; i++ {
			a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			lits = append(lits, g.And(a, b))
		}
		// Output only a few nodes so some become dangling.
		for i := 0; i < 3; i++ {
			g.AddOutput(lits[rng.Intn(len(lits))], "")
		}
		sw, _ := g.Sweep()
		return Equivalent(g, sw, seed^0x5a5a, 8) && sw.NumAnds() <= g.NumAnds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConeSize(t *testing.T) {
	g := New("cone")
	a := g.AddInput("a")
	b := g.AddInput("b")
	c := g.AddInput("c")
	x := g.And(a, b)
	y := g.And(x, c)
	z := g.And(a, c) // outside y's cone? a and c are shared inputs, but z is a distinct AND
	g.AddOutput(y, "y")
	g.AddOutput(z, "z")
	if got := g.ConeSize(y); got != 2 {
		t.Fatalf("ConeSize(y) = %d, want 2", got)
	}
	if got := g.ConeSize(z); got != 1 {
		t.Fatalf("ConeSize(z) = %d, want 1", got)
	}
	if got := g.ConeSize(a); got != 0 {
		t.Fatalf("ConeSize(input) = %d, want 0", got)
	}
}

func TestFaninsPanicsOnNonAnd(t *testing.T) {
	g := New("panic")
	a := g.AddInput("a")
	defer func() {
		if recover() == nil {
			t.Fatal("Fanins on input did not panic")
		}
	}()
	g.Fanins(a.Var())
}

func TestStatsString(t *testing.T) {
	g := buildAdder(t, 4)
	s := g.Stats()
	if s.Inputs != 8 || s.Outputs != 5 {
		t.Fatalf("stats = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}

func TestWriteDot(t *testing.T) {
	g := New("dot")
	a := g.AddInput("a")
	b := g.AddInput("b")
	g.AddOutput(g.And(a, b.Not()), "f")
	var buf bytes.Buffer
	if err := g.WriteDot(&buf); err != nil {
		t.Fatalf("dot: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "shape=box", "shape=circle", "doublecircle", "style=dashed", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q:\n%s", want, out)
		}
	}
}
