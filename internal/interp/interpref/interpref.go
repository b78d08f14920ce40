// Package interpref is the reference the compiled execution plans are
// tested against: a direct, hook-driven IR interpreter that walks
// *ir.Block/*ir.Instr values one event at a time, plus a Ball-Larus path
// profiler, a per-instruction timing feed (ooo.Model.Feed, not the timing
// packets) and a branch-history register driven by its hooks. It shares only the single-instruction evaluator
// (interp.Eval) with production, so a plan that drifts from the IR
// semantics shows up as a differential-test failure.
//
// Only tests import this package; scripts/check.sh fails if a non-test
// package does.
package interpref

import (
	"fmt"

	"needle/internal/ballarus"
	"needle/internal/interp"
	"needle/internal/ir"
)

// maxCallDepth mirrors the plan's recursion bound.
const maxCallDepth = 256

// Hooks receives dynamic execution events. Any field may be nil. Events fire
// in program order: Block when control enters a block (including the entry
// block), Edge on every control transfer between blocks (before the Block
// event of the target), Instr after each executed instruction (terminators
// included; a call's fires before the callee runs), and Exit when a
// function returns, identifying the returning block. Callee blocks and
// instructions fire events too.
type Hooks struct {
	Block func(b *ir.Block)
	Edge  func(from, to *ir.Block)
	Instr func(in *ir.Instr)
	Exit  func(from *ir.Block)
	// Mem fires for every load and store, just before the Instr event of the
	// same operation, exposing the effective word address.
	Mem func(in *ir.Instr, addr int64)
}

// Run executes f with the given arguments over mem, bounded by maxSteps
// dynamic instructions (<= 0 means 1<<32), firing every event to each hook
// set in argument order (nil sets are skipped). It has interp.Exec's
// contract: same results, step counts, memory effects and error texts.
func Run(f *ir.Function, args []uint64, mem []uint64, maxSteps int64, hooks ...*Hooks) (interp.Result, error) {
	if maxSteps <= 0 {
		maxSteps = 1 << 32
	}
	ex := &executor{mem: mem, maxSteps: maxSteps}
	for _, h := range hooks {
		if h != nil {
			ex.hooks = append(ex.hooks, h)
		}
	}
	ret, err := ex.exec(f, args, 0)
	return interp.Result{Ret: ret, Steps: ex.steps}, err
}

// executor carries the state shared across nested calls.
type executor struct {
	mem      []uint64
	hooks    []*Hooks
	maxSteps int64
	steps    int64
	vals     []uint64 // phi values, read before any is written
}

func (ex *executor) exec(f *ir.Function, args []uint64, depth int) (uint64, error) {
	if depth > maxCallDepth {
		return 0, fmt.Errorf("%w in %s", interp.ErrCallDepth, f.Name)
	}
	if len(args) != f.NumParams() {
		return 0, fmt.Errorf("interp: %s wants %d args, got %d", f.Name, f.NumParams(), len(args))
	}
	regs := make([]uint64, len(f.RegType))
	for i, a := range args {
		regs[f.Param(i)] = a
	}
	var prev *ir.Block
	for cur := f.Entry(); ; {
		next, ret, returned, err := ex.block(f, cur, prev, regs, depth)
		if err != nil || returned {
			return ret, err
		}
		prev, cur = cur, next
	}
}

// block executes one basic block of f — phi resolution against prev, the
// body, and the terminator — counting steps and firing hooks. It returns
// the successor block, or returned=true with the return bits.
func (ex *executor) block(f *ir.Function, cur, prev *ir.Block, regs []uint64, depth int) (next *ir.Block, ret uint64, returned bool, err error) {
	for _, h := range ex.hooks {
		if h.Block != nil {
			h.Block(cur)
		}
	}
	// Phis read every incoming value before writing any (parallel copy).
	phis := cur.Phis()
	ex.vals = ex.vals[:0]
	for _, phi := range phis {
		idx := incoming(phi, prev)
		if idx < 0 {
			return nil, 0, false, fmt.Errorf("interp: %s.%s: phi %s has no incoming edge from %s",
				f.Name, cur.Name, phi.Dst, prev)
		}
		ex.vals = append(ex.vals, regs[phi.Args[idx]])
	}
	for i, phi := range phis {
		regs[phi.Dst] = ex.vals[i]
		if ex.steps++; ex.steps > ex.maxSteps {
			return nil, 0, false, fmt.Errorf("%w (limit %d) in %s", interp.ErrStepLimit, ex.maxSteps, f.Name)
		}
		ex.instr(phi)
	}

	for _, in := range cur.Instrs[len(phis):] {
		if ex.steps++; ex.steps > ex.maxSteps {
			return nil, 0, false, fmt.Errorf("%w (limit %d) in %s", interp.ErrStepLimit, ex.maxSteps, f.Name)
		}
		switch in.Op {
		case ir.OpBr:
			next = in.Blocks[0]
		case ir.OpCondBr:
			next = in.Blocks[1]
			if regs[in.Args[0]] != 0 {
				next = in.Blocks[0]
			}
		case ir.OpRet:
			if len(in.Args) == 1 {
				ret = regs[in.Args[0]]
			}
			ex.instr(in)
			for _, h := range ex.hooks {
				if h.Exit != nil {
					h.Exit(cur)
				}
			}
			return nil, ret, true, nil
		case ir.OpCall:
			callArgs := make([]uint64, len(in.Args))
			for i, a := range in.Args {
				callArgs[i] = regs[a]
			}
			ex.instr(in)
			v, err := ex.exec(in.Callee, callArgs, depth+1)
			if err != nil {
				return nil, 0, false, err
			}
			regs[in.Dst] = v
			continue
		default:
			for _, h := range ex.hooks {
				if h.Mem != nil && in.Op.IsMemory() {
					h.Mem(in, int64(regs[in.Args[0]]))
				}
			}
			v, err := interp.Eval(in, regs, ex.mem)
			if err != nil {
				return nil, 0, false, fmt.Errorf("%w in %s.%s", err, f.Name, cur.Name)
			}
			if in.Op.HasDest() {
				regs[in.Dst] = v
			}
		}
		ex.instr(in)
		if next != nil {
			for _, h := range ex.hooks {
				if h.Edge != nil {
					h.Edge(cur, next)
				}
			}
			return next, 0, false, nil
		}
	}
	return nil, 0, false, fmt.Errorf("interp: %s.%s: block fell off the end", f.Name, cur.Name)
}

func (ex *executor) instr(in *ir.Instr) {
	for _, h := range ex.hooks {
		if h.Instr != nil {
			h.Instr(in)
		}
	}
}

// incoming returns the index of phi's first incoming value from prev, or -1.
func incoming(phi *ir.Instr, prev *ir.Block) int {
	for k, from := range phi.Blocks {
		if from == prev {
			return k
		}
	}
	return -1
}

// Step executes exactly one basic block — phi resolution against prev, the
// body, and the terminator — mutating regs and mem, for drivers that own the
// program counter (the functional offload test interleaves host blocks with
// accelerator frames). It returns the successor block, or returned=true
// with the return bits. Calls run to completion under Run's default bounds.
func Step(f *ir.Function, cur, prev *ir.Block, regs, mem []uint64) (next *ir.Block, ret uint64, returned bool, err error) {
	ex := &executor{mem: mem, maxSteps: 1 << 32}
	return ex.block(f, cur, prev, regs, 0)
}

// Profiler accumulates block, edge and Ball-Larus path counts of one
// function from hook events, reading path increments straight from the DAG
// (ballarus.DAG.EdgeVal/ExitVal) rather than from a compiled plan overlay.
// Only the invoked function's own events count: callee events — recursive
// invocations included — are skipped, as the plan runs callees unprofiled.
// A profiler may observe many invocations, but not one that failed inside a
// callee.
type Profiler struct {
	DAG         *ballarus.DAG
	Blocks      []int64          // per block index
	Edges       map[[2]int]int64 // (from, to) block indices
	Counts      map[int64]int64  // path ID -> frequency
	Trace       []int64          // completed path IDs in order, if RecordTrace
	OnPath      func(id int64)   // fired at every path completion
	RecordTrace bool

	reg     int64 // path register
	depth   int   // call nesting below the profiled invocation
	arrived bool  // the last event was an Edge (the next Block is no entry)
}

// NewProfiler creates a profiler for the function dag numbers.
func NewProfiler(dag *ballarus.DAG) *Profiler {
	return &Profiler{
		DAG:    dag,
		Blocks: make([]int64, len(dag.F.Blocks)),
		Edges:  make(map[[2]int]int64),
		Counts: make(map[int64]int64),
	}
}

func (p *Profiler) record(id int64) {
	p.Counts[id]++
	if p.RecordTrace {
		p.Trace = append(p.Trace, id)
	}
	if p.OnPath != nil {
		p.OnPath(id)
	}
}

// Hooks returns the hooks that drive the profiler.
func (p *Profiler) Hooks() *Hooks {
	return &Hooks{
		Instr: func(in *ir.Instr) {
			if in.Op == ir.OpCall {
				p.depth++
			}
		},
		Block: func(b *ir.Block) {
			if p.depth > 0 {
				return
			}
			p.Blocks[b.Index]++
			if !p.arrived {
				p.reg = p.DAG.EntryVal()
			}
			p.arrived = false
		},
		Edge: func(from, to *ir.Block) {
			if p.depth > 0 {
				return
			}
			p.Edges[[2]int{from.Index, to.Index}]++
			p.arrived = true
			if e := p.DAG.EdgeVal(from.Index, to.Index); e.Flush {
				p.record(p.reg + e.Inc)
				p.reg = e.Reset
			} else {
				p.reg += e.Inc
			}
		},
		Exit: func(b *ir.Block) {
			if p.depth > 0 {
				p.depth--
				return
			}
			p.record(p.reg + p.DAG.ExitVal(b.Index))
		},
	}
}

// InstrTiming is a timing model fed one instruction at a time: *ooo.Model's
// per-instruction Feed, independent of the timing packets planned runs use.
type InstrTiming interface {
	// Feed schedules one dynamic instruction; addr is its effective word
	// address when it is a load or store.
	Feed(in *ir.Instr, addr int64)
	// NoteBranch reports a conditional branch outcome after its branch.
	NoteBranch(taken bool)
}

// TimingHooks feeds tm every executed instruction, with the effective
// address of each memory operation, and every conditional branch outcome
// after its branch.
func TimingHooks(tm InstrTiming) *Hooks {
	var addr int64
	return &Hooks{
		Mem:   func(_ *ir.Instr, a int64) { addr = a },
		Instr: func(in *ir.Instr) { tm.Feed(in, addr) },
		Edge: func(from, to *ir.Block) {
			if t := from.Term(); t.Op == ir.OpCondBr {
				tm.NoteBranch(t.Blocks[0] == to)
			}
		},
	}
}

// HistoryHooks shifts every conditional branch outcome into *h: 1 when the
// taken arm (Blocks[0]) ran, 0 otherwise.
func HistoryHooks(h *uint64) *Hooks {
	return &Hooks{
		Edge: func(from, to *ir.Block) {
			if t := from.Term(); t.Op == ir.OpCondBr {
				bit := uint64(0)
				if t.Blocks[0] == to {
					bit = 1
				}
				*h = *h<<1 | bit
			}
		},
	}
}
