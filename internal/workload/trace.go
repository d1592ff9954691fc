package workload

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"mantle/internal/mds"
)

// Trace files let real or synthetic metadata workloads be replayed against
// the simulated cluster (metadata traces are the standard way to evaluate
// these systems — the paper cites Abad et al.'s trace/workload-model work).
// The format is one operation per line:
//
//	# comment
//	mkdir /a
//	create /a/file1
//	getattr /a/file1
//	rename /a/file1 /a/file2
//	readdir /a
//
// Op names match mds.OpType strings. A `#phase name` directive tags every
// following op with that phase (rate shapers key off the link phase); plain
// comments are ignored. The phase names form a closed set: untar, compile,
// link and hot, or nothing at all (`#phase` alone) to clear the tag. Any
// other name is an error carrying its line number. The name may be glued to
// the directive (`#phaselink`), so a comment that begins with "#phase" is a
// directive too.

var opByName = map[string]mds.OpType{
	"create": mds.OpCreate, "mkdir": mds.OpMkdir, "getattr": mds.OpGetattr,
	"lookup": mds.OpLookup, "open": mds.OpOpen, "readdir": mds.OpReaddir,
	"unlink": mds.OpUnlink, "rename": mds.OpRename, "setattr": mds.OpSetattr,
}

// ParseTrace reads a trace into a replayable generator.
func ParseTrace(r io.Reader) (*SliceGen, error) {
	var ops []Op
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	phase := PhaseNone
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "#phase"); ok {
				name := strings.TrimSpace(rest)
				if phase, ok = parsePhase(name); !ok {
					return nil, fmt.Errorf("trace line %d: unknown phase %q", lineNo, name)
				}
			}
			continue
		}
		fields := strings.Fields(line)
		op, ok := opByName[strings.ToLower(fields[0])]
		if !ok {
			return nil, fmt.Errorf("trace line %d: unknown op %q", lineNo, fields[0])
		}
		want := 2
		if op == mds.OpRename {
			want = 3
		}
		if len(fields) != want {
			return nil, fmt.Errorf("trace line %d: %s takes %d argument(s), got %d",
				lineNo, fields[0], want-1, len(fields)-1)
		}
		for _, p := range fields[1:] {
			if !strings.HasPrefix(p, "/") {
				return nil, fmt.Errorf("trace line %d: path %q is not absolute", lineNo, p)
			}
			if strings.IndexByte(p, 0) >= 0 {
				return nil, fmt.Errorf("trace line %d: path %q contains a NUL", lineNo, p)
			}
		}
		o := Op{Type: op, Path: fields[1]}
		if op == mds.OpRename {
			o = Rename(fields[1], fields[2])
		}
		o.Phase = phase
		ops = append(ops, o)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &SliceGen{Ops: ops}, nil
}

// WriteTrace renders operations in the trace format.
func WriteTrace(w io.Writer, ops []Op) error {
	bw := bufio.NewWriter(w)
	phase := PhaseNone
	for _, op := range ops {
		if op.Phase != phase {
			phase = op.Phase
			fmt.Fprintf(bw, "#phase %s\n", phase)
		}
		if op.Type == mds.OpRename {
			fmt.Fprintf(bw, "%s %s %s\n", op.Type, op.Src(), op.Dst())
			continue
		}
		fmt.Fprintf(bw, "%s %s\n", op.Type, op.Path)
	}
	return bw.Flush()
}

// Record wraps a generator, appending every op it yields to Ops — attach it
// to a synthetic workload to capture a replayable trace of what actually
// ran.
type Record struct {
	Inner Generator
	Ops   []Op
}

// Next implements Generator.
func (r *Record) Next() (Op, bool) {
	op, ok := r.Inner.Next()
	if ok {
		r.Ops = append(r.Ops, op)
	}
	return op, ok
}
