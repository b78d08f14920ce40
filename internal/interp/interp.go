// Package interp executes IR functions. It plays the role the natively
// executed, instrumented binary plays in the original LLVM-based system:
// the source of dynamic profiles. Execution always goes through a compiled
// Plan (plan.go): RunProfiled is the profiling run the pipeline captures,
// Exec the plain run the tools and examples use, and both share one
// opcode-dispatch loop.
package interp

import (
	"errors"
	"fmt"
	"math"

	"needle/internal/ir"
)

// Errors returned by Exec and RunProfiled.
var (
	ErrDivideByZero = errors.New("interp: integer divide by zero")
	ErrOutOfBounds  = errors.New("interp: memory access out of bounds")
	ErrStepLimit    = errors.New("interp: step limit exceeded")
	// ErrTimedCall rejects a timed or history-tracked run of a function
	// that still contains calls: callees run unprofiled, so a host timing
	// model would see a partial instruction stream. The pipeline inlines
	// before capture, so only raw call-bearing functions hit it.
	ErrTimedCall = errors.New("interp: timed run of a call-bearing function")
)

// Result summarizes one execution.
type Result struct {
	Ret   uint64 // raw bits of the return value; 0 for void
	Steps int64  // dynamically executed instructions, terminators included
}

// F converts raw bits to float64.
func F(bits uint64) float64 { return math.Float64frombits(bits) }

// FBits converts a float64 to raw bits.
func FBits(v float64) uint64 { return math.Float64bits(v) }

// I converts raw bits to int64.
func I(bits uint64) int64 { return int64(bits) }

// IBits converts an int64 to raw bits.
func IBits(v int64) uint64 { return uint64(v) }

// maxCallDepth bounds recursion through OpCall.
const maxCallDepth = 256

// ErrCallDepth is returned when call nesting exceeds maxCallDepth.
var ErrCallDepth = errors.New("interp: call depth exceeded")

// Exec executes f with the given arguments over mem, bounded by maxSteps
// dynamic instructions (<= 0 means a generous default of 1<<32), without
// collecting a profile. Argument and return values are raw 64-bit patterns;
// use F/FBits for float parameters. Calls execute to completion under the
// caller's step budget, nested at most maxCallDepth deep.
func Exec(f *ir.Function, args []uint64, mem []uint64, maxSteps int64) (Result, error) {
	p := BuildPlan(f)
	return RunProfiled(p, p.quiet, args, mem, NewPathState(p, 1, false), PlanOpts{MaxSteps: maxSteps})
}

// Eval executes one non-control instruction against a register file and
// memory, returning the raw result bits. It is the single-instruction
// building block of the plans' rare-opcode path, the speculation runtime's
// frame executor, and the reference interpreter.
func Eval(in *ir.Instr, regs []uint64, mem []uint64) (uint64, error) {
	a := func(i int) uint64 { return regs[in.Args[i]] }
	ai := func(i int) int64 { return int64(regs[in.Args[i]]) }
	af := func(i int) float64 { return math.Float64frombits(regs[in.Args[i]]) }
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}

	switch in.Op {
	case ir.OpAdd:
		return uint64(ai(0) + ai(1)), nil
	case ir.OpSub:
		return uint64(ai(0) - ai(1)), nil
	case ir.OpMul:
		return uint64(ai(0) * ai(1)), nil
	case ir.OpDiv:
		d := ai(1)
		if d == 0 {
			return 0, ErrDivideByZero
		}
		return uint64(ai(0) / d), nil
	case ir.OpRem:
		d := ai(1)
		if d == 0 {
			return 0, ErrDivideByZero
		}
		return uint64(ai(0) % d), nil
	case ir.OpAnd:
		return a(0) & a(1), nil
	case ir.OpOr:
		return a(0) | a(1), nil
	case ir.OpXor:
		return a(0) ^ a(1), nil
	case ir.OpShl:
		return uint64(ai(0) << (a(1) & 63)), nil
	case ir.OpShr:
		return uint64(ai(0) >> (a(1) & 63)), nil
	case ir.OpFAdd:
		return math.Float64bits(af(0) + af(1)), nil
	case ir.OpFSub:
		return math.Float64bits(af(0) - af(1)), nil
	case ir.OpFMul:
		return math.Float64bits(af(0) * af(1)), nil
	case ir.OpFDiv:
		return math.Float64bits(af(0) / af(1)), nil
	case ir.OpSqrt:
		return math.Float64bits(math.Sqrt(af(0))), nil
	case ir.OpExp:
		return math.Float64bits(math.Exp(af(0))), nil
	case ir.OpLog:
		return math.Float64bits(math.Log(af(0))), nil
	case ir.OpSIToFP:
		return math.Float64bits(float64(ai(0))), nil
	case ir.OpFPToSI:
		return uint64(int64(af(0))), nil
	case ir.OpCmpEQ:
		return b(ai(0) == ai(1)), nil
	case ir.OpCmpNE:
		return b(ai(0) != ai(1)), nil
	case ir.OpCmpLT:
		return b(ai(0) < ai(1)), nil
	case ir.OpCmpLE:
		return b(ai(0) <= ai(1)), nil
	case ir.OpCmpGT:
		return b(ai(0) > ai(1)), nil
	case ir.OpCmpGE:
		return b(ai(0) >= ai(1)), nil
	case ir.OpFCmpEQ:
		return b(af(0) == af(1)), nil
	case ir.OpFCmpNE:
		return b(af(0) != af(1)), nil
	case ir.OpFCmpLT:
		return b(af(0) < af(1)), nil
	case ir.OpFCmpLE:
		return b(af(0) <= af(1)), nil
	case ir.OpFCmpGT:
		return b(af(0) > af(1)), nil
	case ir.OpFCmpGE:
		return b(af(0) >= af(1)), nil
	case ir.OpConst:
		return uint64(in.Imm), nil
	case ir.OpCopy:
		return a(0), nil
	case ir.OpSelect:
		if a(0) != 0 {
			return a(1), nil
		}
		return a(2), nil
	case ir.OpLoad:
		addr := ai(0)
		if addr < 0 || addr >= int64(len(mem)) {
			return 0, fmt.Errorf("%w: load of word %d (mem size %d)", ErrOutOfBounds, addr, len(mem))
		}
		return mem[addr], nil
	case ir.OpStore:
		addr := ai(0)
		if addr < 0 || addr >= int64(len(mem)) {
			return 0, fmt.Errorf("%w: store to word %d (mem size %d)", ErrOutOfBounds, addr, len(mem))
		}
		mem[addr] = a(1)
		return 0, nil
	}
	return 0, fmt.Errorf("interp: unhandled opcode %s", in.Op)
}
