package aig

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteASCII serializes the graph in the ASCII AIGER (aag) format.
// Latches are not emitted; the synthesis flow treats sequential elements
// at the netlist level. Symbol-table entries are written for named
// inputs and outputs, and the graph name becomes a comment.
func (g *Graph) WriteASCII(w io.Writer) error {
	bw := bufio.NewWriter(w)
	maxVar := len(g.nodes) - 1
	fmt.Fprintf(bw, "aag %d %d 0 %d %d\n", maxVar, len(g.inputs), len(g.outputs), g.NumAnds())
	for _, v := range g.inputs {
		fmt.Fprintf(bw, "%d\n", MakeLit(v, false))
	}
	for _, o := range g.outputs {
		fmt.Fprintf(bw, "%d\n", o)
	}
	for v := 1; v < len(g.nodes); v++ {
		n := &g.nodes[v]
		if n.kind != kindAnd {
			continue
		}
		fmt.Fprintf(bw, "%d %d %d\n", MakeLit(v, false), n.fan1, n.fan0)
	}
	for i, name := range g.inNames {
		if name != "" {
			fmt.Fprintf(bw, "i%d %s\n", i, name)
		}
	}
	for i, name := range g.outNames {
		if name != "" {
			fmt.Fprintf(bw, "o%d %s\n", i, name)
		}
	}
	if g.Name != "" {
		fmt.Fprintf(bw, "c\n%s\n", g.Name)
	}
	return bw.Flush()
}

// ReadASCII parses an ASCII AIGER (aag) stream produced by WriteASCII or
// any conforming tool. Latch declarations are rejected. The returned
// graph is re-hashed, so structurally duplicate ANDs in the input are
// merged.
func ReadASCII(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("aig: empty AIGER stream")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 6 || header[0] != "aag" {
		return nil, fmt.Errorf("aig: bad AIGER header %q", sc.Text())
	}
	nums := make([]int, 5)
	for i, f := range header[1:] {
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("aig: bad AIGER header field %q", f)
		}
		nums[i] = n
	}
	maxVar, nIn, nLatch, nOut, nAnd := nums[0], nums[1], nums[2], nums[3], nums[4]
	if nLatch != 0 {
		return nil, fmt.Errorf("aig: latches are not supported (got %d)", nLatch)
	}
	if maxVar < nIn+nAnd {
		return nil, fmt.Errorf("aig: header claims %d vars for %d inputs + %d ands", maxVar, nIn, nAnd)
	}

	g := New("")
	// old literal -> new literal, indexed by variable.
	old2new := make([]Lit, maxVar+1)
	old2new[0] = False

	readLit := func(field string) (Lit, error) {
		n, err := strconv.Atoi(field)
		if err != nil || n < 0 || n>>1 > maxVar {
			return 0, fmt.Errorf("aig: bad literal %q", field)
		}
		return Lit(n), nil
	}
	nextLine := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", io.ErrUnexpectedEOF
		}
		return sc.Text(), nil
	}

	for i := 0; i < nIn; i++ {
		line, err := nextLine()
		if err != nil {
			return nil, err
		}
		l, err := readLit(strings.TrimSpace(line))
		if err != nil {
			return nil, err
		}
		if l.IsNeg() {
			return nil, fmt.Errorf("aig: complemented input literal %d", l)
		}
		old2new[l.Var()] = g.AddInput("")
	}
	outLits := make([]Lit, nOut)
	for i := 0; i < nOut; i++ {
		line, err := nextLine()
		if err != nil {
			return nil, err
		}
		l, err := readLit(strings.TrimSpace(line))
		if err != nil {
			return nil, err
		}
		outLits[i] = l
	}
	// AIGER requires fanins to be declared before use, so each AND line
	// is built the moment it is read: the only buffered state is the
	// output-literal list (forward references are legal there) and the
	// variable map itself. At million-gate scale this keeps the reader's
	// footprint at the graph being built, with no whole-file declaration
	// buffer alongside it.
	for i := 0; i < nAnd; i++ {
		line, err := nextLine()
		if err != nil {
			return nil, err
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("aig: bad AND line %q", line)
		}
		var lits [3]Lit
		for j, f := range fields {
			l, err := readLit(f)
			if err != nil {
				return nil, err
			}
			lits[j] = l
		}
		if lits[0].IsNeg() {
			return nil, fmt.Errorf("aig: complemented AND lhs %d", lits[0])
		}
		f0 := old2new[lits[1].Var()]
		f1 := old2new[lits[2].Var()]
		old2new[lits[0].Var()] = g.And(f0.NotIf(lits[1].IsNeg()), f1.NotIf(lits[2].IsNeg()))
	}
	for _, l := range outLits {
		g.AddOutput(old2new[l.Var()].NotIf(l.IsNeg()), "")
	}

	// Optional symbol table and comment section.
	for sc.Scan() {
		line := sc.Text()
		if line == "c" {
			if sc.Scan() {
				g.Name = strings.TrimSpace(sc.Text())
			}
			break
		}
		if len(line) < 2 {
			continue
		}
		fields := strings.Fields(line[1:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("aig: symbol line %q has no index", line)
		}
		idx, err := strconv.Atoi(fields[0])
		if err != nil {
			continue
		}
		name := ""
		if sp := strings.IndexByte(line, ' '); sp >= 0 {
			name = line[sp+1:]
		}
		switch {
		case line[0] == 'i' && idx < len(g.inNames):
			g.inNames[idx] = name
		case line[0] == 'o' && idx < len(g.outNames):
			g.outNames[idx] = name
		}
	}
	return g, sc.Err()
}
