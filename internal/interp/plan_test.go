package interp

import (
	"errors"
	"testing"

	"needle/internal/ir"
)

// TestStepLimitExactAtEveryInstruction pins the step budget to every
// position of the dynamic stream in turn: execution must stop with
// ErrStepLimit exactly one instruction past the budget no matter what kind
// of instruction the limit lands on. Phis count as instructions, so a limit
// landing mid-phi-sequence must trip there, not at the next body check.
func TestStepLimitExactAtEveryInstruction(t *testing.T) {
	f := buildSumLoop(t)
	full, err := Exec(f, []uint64{IBits(5)}, nil, 0)
	if err != nil {
		t.Fatalf("unlimited run: %v", err)
	}
	for limit := int64(1); limit < full.Steps; limit++ {
		res, err := Exec(f, []uint64{IBits(5)}, nil, limit)
		if !errors.Is(err, ErrStepLimit) {
			t.Fatalf("limit %d: want ErrStepLimit, got %v", limit, err)
		}
		if res.Steps != limit+1 {
			t.Fatalf("limit %d: stopped at step %d, want %d (limit not enforced at that instruction)",
				limit, res.Steps, limit+1)
		}
	}
}

func TestBuildPlanSumLoop(t *testing.T) {
	f := buildSumLoop(t)
	p := BuildPlan(f)
	if p.F() != f {
		t.Error("plan function mismatch")
	}
	// entry->head, head->body, head->exit, body->head.
	if p.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", p.NumEdges())
	}
	seen := make(map[[2]int]bool)
	for s := 0; s < p.NumEdges(); s++ {
		from, to := p.Edge(s)
		if from < 0 || from >= len(f.Blocks) || to < 0 || to >= len(f.Blocks) {
			t.Fatalf("edge %d = (%d,%d) out of range", s, from, to)
		}
		seen[[2]int{from, to}] = true
	}
	if len(seen) != 4 {
		t.Errorf("edges not distinct: %v", seen)
	}
}

// TestBuildPlanDeclinesCalls: a call-bearing plan runs plainly — the callee
// to completion, unprofiled — but declines a timed or history-tracked run
// with ErrTimedCall (capture only ever sees inlined functions), while a
// call-free plan accepts both.
func TestBuildPlanDeclinesCalls(t *testing.T) {
	src := `func @leaf(i64) {
entry:
  ret r1
}

func @main(i64) {
entry:
  r2 = call.i64 @leaf r1
  ret r2
}
`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	run := func(f *ir.Function, hist *uint64) (Result, error) {
		p := BuildPlan(f)
		return RunProfiled(p, p.quiet, []uint64{IBits(7)}, nil, NewPathState(p, 1, false), PlanOpts{History: hist})
	}
	var h uint64
	if _, err := run(m.Func("main"), &h); !errors.Is(err, ErrTimedCall) {
		t.Errorf("history-tracked call-bearing run: want ErrTimedCall, got %v", err)
	}
	if res, err := run(m.Func("main"), nil); err != nil || I(res.Ret) != 7 || res.Steps != 3 {
		t.Errorf("plain call-bearing run = %+v, %v; want ret 7 in 3 steps", res, err)
	}
	if _, err := run(m.Func("leaf"), &h); err != nil {
		t.Errorf("history-tracked leaf run: %v", err)
	}
}
