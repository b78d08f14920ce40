package interp_test

import (
	"testing"

	"needle/internal/interp"
	"needle/internal/interp/interpref"
	"needle/internal/ir"
)

// The hook-event contract of the reference interpreter, which every
// plan-versus-reference differential test relies on.

const sumLoopSrc = `func @sum(i64) {
entry:
  r2 = const.i64 0
  r3 = const.i64 1
  br %head
head:
  r4 = phi.i64 [entry: r2] [body: r7]
  r5 = phi.i64 [entry: r2] [body: r8]
  r6 = cmp.lt r5, r1
  condbr r6, %body, %exit
body:
  r7 = add r4, r5
  r8 = add r5, r3
  br %head
exit:
  ret r4
}
`

func TestHooksFireInOrder(t *testing.T) {
	f, err := ir.ParseFunction(sumLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []string
	var edges []string
	var instrs int
	exited := ""
	hooks := &interpref.Hooks{
		Block: func(b *ir.Block) { blocks = append(blocks, b.Name) },
		Edge:  func(from, to *ir.Block) { edges = append(edges, from.Name+"->"+to.Name) },
		Instr: func(in *ir.Instr) { instrs++ },
		Exit:  func(b *ir.Block) { exited = b.Name },
	}
	res, err := interpref.Run(f, []uint64{interp.IBits(2)}, nil, 0, hooks)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantBlocks := []string{"entry", "head", "body", "head", "body", "head", "exit"}
	if len(blocks) != len(wantBlocks) {
		t.Fatalf("blocks = %v, want %v", blocks, wantBlocks)
	}
	for i := range blocks {
		if blocks[i] != wantBlocks[i] {
			t.Fatalf("blocks = %v, want %v", blocks, wantBlocks)
		}
	}
	if len(edges) != len(wantBlocks)-1 {
		t.Fatalf("edges = %v", edges)
	}
	if edges[0] != "entry->head" || edges[len(edges)-1] != "head->exit" {
		t.Fatalf("edges = %v", edges)
	}
	if int64(instrs) != res.Steps {
		t.Fatalf("instr hook fired %d times, steps = %d", instrs, res.Steps)
	}
	if exited != "exit" {
		t.Fatalf("exit block = %q", exited)
	}
	plain, err := interp.Exec(f, []uint64{interp.IBits(2)}, nil, 0)
	if err != nil || plain != res {
		t.Fatalf("Exec = %+v, %v; reference %+v", plain, err, res)
	}
}

func TestCallHooksFireForCallee(t *testing.T) {
	src := `func @id(i64) {
entry:
  ret r1
}

func @main(i64) {
entry:
  r2 = call.i64 @id r1
  ret r2
}
`
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []string
	hooks := &interpref.Hooks{Block: func(b *ir.Block) { blocks = append(blocks, b.Name) }}
	if _, err := interpref.Run(m.Func("main"), []uint64{interp.IBits(7)}, nil, 0, hooks); err != nil {
		t.Fatal(err)
	}
	// Both functions' entry blocks fire (same name, two functions).
	if len(blocks) != 2 {
		t.Fatalf("block events = %v, want 2 entries", blocks)
	}
}
