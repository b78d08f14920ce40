// Timing packets: the per-block half of the batched capture feed. A
// packet is the timing model's view of one planned basic block — opcode,
// unit class, destination register, and source registers of every dynamic
// instruction the block issues (phi-move prefix, body, terminator) — laid
// out as a dense array of compact fixed-size entries. BuildPlan derives one
// packet per block (backed by a single per-plan arena, so hot blocks walk
// contiguous memory), and the capture loop hands the whole block to the
// timing model in a single FeedBlock call: the model walks flat entries
// instead of chasing *ir.Instr pointers one virtual Feed at a time.
package interp

import "needle/internal/ir"

// Timing-packet unit classes. They partition opcodes exactly as the host
// timing model's per-instruction dispatch does: memory ops take their
// latency from the cache model, float ops issue to FPUs, everything else
// (compares, moves, branches included) to ALUs.
const (
	TimingClassInt = iota // integer ALU ops
	TimingClassFP         // floating-point ops
	TimingClassMem        // loads and stores
)

// TimingEntry is one dynamic instruction in a packet, packed into 16 bytes
// so the scheduling loop touches one cache line per couple of entries. The
// first two source registers are inlined (Src0/Src1, the common case for
// binary ops) with absent slots holding ir.NoReg (register 0) — NoReg is
// never a destination in verified IR, so its ready time is always zero and
// consumers can read both slots unconditionally instead of branching on the
// source count. NSrc is min(count, 3); entries with three or more sources
// (phi moves with many incoming values) spill the full list to the packet's
// SrcOff/Srcs overflow arrays.
type TimingEntry struct {
	Op    uint8 // ir.Op (latency-table index)
	Class uint8 // TimingClass*
	NSrc  uint8 // min(number of sources, 3); 3 means "consult SrcOff/Srcs"
	Dst   int32 // destination register; -1 when the entry defines none
	Src0  int32 // first source register (ir.NoReg when absent)
	Src1  int32 // second source register (ir.NoReg when absent)
}

// TimingPacket is the flattened dynamic-instruction sequence of one planned
// block. Entries appear in feed order: the phi-move prefix, the body, then
// the terminator. Packets are immutable after construction and safe to share
// across concurrent runs (plans are cached per function).
//
// A conditional branch may only appear as the final entry — the invariant
// verified IR guarantees — which lets consumers track the model's
// last-branch timestamp without a per-entry opcode test.
type TimingPacket struct {
	Ent    []TimingEntry
	SrcOff []int32 // len(Ent)+1 offsets into Srcs, one span per entry
	Srcs   []int32 // flattened source registers (NoReg pre-filtered)
	NumMem int     // number of TimingClassMem entries (address-scratch size)
	CondBr bool    // the final entry is a conditional branch
}

// NewTimingPacket compiles an instruction sequence into a packet. The
// sequence must list the instructions in dynamic feed order; phi entries
// carry every incoming register as a source, exactly as the per-instruction
// feed exposes them.
func NewTimingPacket(instrs []*ir.Instr) *TimingPacket {
	n := len(instrs)
	pk := &TimingPacket{
		Ent:    make([]TimingEntry, n),
		SrcOff: make([]int32, n+1),
	}
	for i, in := range instrs {
		e := &pk.Ent[i]
		e.Op = uint8(in.Op)
		switch {
		case in.Op.IsMemory():
			e.Class = TimingClassMem
			pk.NumMem++
		case in.Op.IsFloat():
			e.Class = TimingClassFP
		default:
			e.Class = TimingClassInt
		}
		e.Dst = -1
		if in.Op.HasDest() {
			e.Dst = int32(in.Dst)
		}
		pk.SrcOff[i] = int32(len(pk.Srcs))
		for _, r := range in.Args {
			if r != ir.NoReg {
				pk.Srcs = append(pk.Srcs, int32(r))
			}
		}
		switch ns := int(pk.SrcOff[i]); len(pk.Srcs) - ns {
		case 0:
		case 1:
			e.NSrc = 1
			e.Src0 = pk.Srcs[ns]
		case 2:
			e.NSrc = 2
			e.Src0, e.Src1 = pk.Srcs[ns], pk.Srcs[ns+1]
		default:
			e.NSrc = 3
			e.Src0, e.Src1 = pk.Srcs[ns], pk.Srcs[ns+1]
		}
	}
	pk.SrcOff[n] = int32(len(pk.Srcs))
	pk.CondBr = n > 0 && instrs[n-1].Op == ir.OpCondBr
	return pk
}

// Len returns the number of entries in the packet.
func (pk *TimingPacket) Len() int { return len(pk.Ent) }

// compactPackets re-backs the packets of a plan's blocks with shared arenas
// so consecutive blocks' entries are contiguous: the capture loop bounces
// between a handful of hot blocks, and one arena keeps all of them in a few
// cache lines instead of one tiny allocation per parallel array per block.
func compactPackets(pks []*TimingPacket) {
	var totE, totS int
	for _, pk := range pks {
		totE += len(pk.Ent)
		totS += len(pk.Srcs)
	}
	entArena := make([]TimingEntry, 0, totE)
	srcArena := make([]int32, 0, totS)
	offArena := make([]int32, 0, totE+len(pks))
	for _, pk := range pks {
		e0 := len(entArena)
		entArena = append(entArena, pk.Ent...)
		pk.Ent = entArena[e0:len(entArena):len(entArena)]
		s0 := len(srcArena)
		srcArena = append(srcArena, pk.Srcs...)
		pk.Srcs = srcArena[s0:len(srcArena):len(srcArena)]
		o0 := len(offArena)
		offArena = append(offArena, pk.SrcOff...)
		pk.SrcOff = offArena[o0:len(offArena):len(offArena)]
	}
}

// Timing consumes the dynamic instruction stream of a planned run one
// block at a time, the host timing model's feed. *ooo.Model implements it;
// feeding a packet must be indistinguishable from feeding its instructions
// one by one through the model's per-instruction Feed (the equivalence the
// ooo tests pin).
type Timing interface {
	// FeedBlock schedules the first n entries of the packet. addrs holds the
	// effective word addresses of the memory entries among them, in entry
	// order (extra trailing addresses are ignored, which lets a partial feed
	// after a faulting memory op reuse the caller's scratch as-is).
	FeedBlock(pk *TimingPacket, n int, addrs []int64)
	// NoteBranch reports a conditional branch outcome, after the branch's
	// block has been fed.
	NoteBranch(taken bool)
}
