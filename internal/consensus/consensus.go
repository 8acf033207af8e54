// Package consensus builds a Paxos-style replicated log out of the
// paper's remote-memory meta-instructions. The observation (after Brock
// et al.'s one-sided data structures): a Paxos acceptor is nothing but
// a few words of compare-and-swap-able state, and rmem CAS is exactly
// that primitive. Acceptor state — a packed promised/accepted
// ballot word plus stamped value cells per log slot — lives in an
// exported rmem segment, and proposers drive the whole agreement protocol
// with one-sided READ/CAS/WRITE against it. The acceptor machine runs no
// agreement code at all: prepare, accept, and learn are data transfers
// into its memory, so the agreement path costs it only the kernel receive
// path (CatRx/CatReply interface work — the Figure 3 argument applied to
// the control plane). Control transfer appears exactly once, where the
// paper says it belongs: the learn write carries the notify bit, waking
// the co-located state-machine replica to apply the decree.
//
// Layout of an acceptor segment, per log slot:
//
//	word 0:              promised(16) | accepted(16)   (the CAS word)
//	cell 0 (learned):    chosen ballot(32) + value     (written after quorum accept)
//	cells 1..K:          ballot stamp(32) + value      (one per proposer lane)
//
// Every value starts with its 4-byte logical slot. Logical slots map
// onto the Slots physical slots modulo Slots, and a control plane
// recycles the window with snapshot decrees (see Replica.checkpoint), so
// the prefix is what tells a decree from a stale cell left by the
// physical slot's previous occupant.
//
// The single packed control word makes promise and accept one atomic CAS:
// a phase-1 CAS bumps the promised half while preserving the accepted
// half, a phase-2 CAS sets both to the proposing ballot. Values travel
// out-of-band in per-proposer cells — each cell has exactly one writer,
// whose stamps increase monotonically, so a reader that observes
// accepted=b in the control word and then reads proposer(b)'s cell sees a
// stamp ≥ b whose value is safe at that stamp (the standard Paxos phase-1
// invariant carries the rest). This is the Disk Paxos construction
// transplanted from network-attached disks onto remote memory.
//
// Above the single-decree core, ControlPlane runs a multi-decree log with
// leader leases and migrates the reproduction's control plane onto it:
// name-registry mutations, fencing verdicts, and shard-membership epoch
// bumps become agreed log entries applied by every replica, so any
// replica can serve reads and the nameserver itself can crash mid-run.
package consensus

import (
	"errors"
	"time"
)

// Errors.
var (
	// ErrNoQuorum reports that a proposal could not reach a majority of
	// acceptors within the retry budget.
	ErrNoQuorum = errors.New("consensus: no quorum of acceptors reachable")
	// ErrValueTooLarge reports a proposed value longer than maxValue.
	ErrValueTooLarge = errors.New("consensus: value exceeds slot payload")
	// ErrLogFull reports that the live window [watermark, watermark+Slots)
	// is full. Under a ControlPlane that only means the appliers are a
	// full window behind; a bare Group has nothing that snapshots it, so
	// there it stops for good at slot Slots.
	ErrLogFull = errors.New("consensus: log slots exhausted")
	// ErrBadCommand reports an undecodable log entry.
	ErrBadCommand = errors.New("consensus: malformed command")
	// ErrNoFreeLane reports that every client ballot lane is held by a
	// live, renewing owner (TryNewClient).
	ErrNoFreeLane = errors.New("consensus: no free proposer lane")
	// ErrLaneLost reports that this client's lane lease was reclaimed by
	// another client (the owner crashed — or was presumed to; either way
	// the lane is gone and the client must not propose again).
	ErrLaneLost = errors.New("consensus: proposer lane lease lost")
	// ErrCompacted reports a proposal at a slot below the compaction
	// watermark: the slot's decree is already folded into a snapshot.
	ErrCompacted = errors.New("consensus: slot below compaction watermark")
)

// payload is the bytes each value cell carries after its ballot stamp:
// the 4-byte logical-slot prefix plus the value. The largest value
// Propose accepts is therefore maxValue, 124 B — room for a packed
// name-registry record or the membership blob of a small ring, but not
// for a 4-shard × 3-replica tier's (a 128 B blob, a 142 B command).
const (
	payload  = 128
	maxValue = payload - 4
)

// Leader leases: every acceptor beats its heartbeat word each
// leaseInterval, and a replica's watchdog declares the leader dead after
// leaseGrace consecutive misses.
const (
	leaseInterval = 250 * time.Microsecond
	leaseGrace    = 4
)

// Config sizes a consensus group. The zero value is filled with defaults.
type Config struct {
	// Acceptors is the replication degree R; a majority (R/2+1) of the
	// original set must survive for the log to make progress. Default 3.
	Acceptors int
	// Proposers is the number of ballot lanes K. Every client of the group
	// (replica or external proposer) owns one lane; ballots from different
	// lanes never collide. Default Acceptors+2.
	Proposers int
	// Slots is the live log window: proposers accept logical slots in
	// [watermark, watermark+Slots). A ControlPlane advances the watermark
	// with a snapshot decree once 3/4 of the window is applied; a bare
	// Group never does. Default 256.
	Slots int
}

func (c *Config) fill() {
	if c.Acceptors <= 0 {
		c.Acceptors = 3
	}
	if c.Proposers <= 0 {
		c.Proposers = c.Acceptors + 2
	}
	if c.Slots <= 0 {
		c.Slots = 256
	}
}

// Quorum is the majority size over the original acceptor set. Crashed
// acceptors stay counted: an acceptor that restarts has forgotten its
// promises (rmem is volatile and Manager.Restart wipes exports), so
// letting it rejoin would allow double votes. It is fenced out instead —
// progress requires a majority of the machines that booted the group.
func (c Config) Quorum() int { return c.Acceptors/2 + 1 }

// Geometry.

// phys maps a logical slot onto its physical slot.
func (c Config) phys(s int) int { return s % c.Slots }

func (c Config) cellSize() int        { return 4 + payload }
func (c Config) slotSize() int        { return 4 + (c.Proposers+1)*c.cellSize() }
func (c Config) ctlOff(s int) int     { return c.phys(s) * c.slotSize() }
func (c Config) learnedOff(s int) int { return c.phys(s)*c.slotSize() + 4 }
func (c Config) cellOff(s, lane int) int {
	return c.phys(s)*c.slotSize() + 4 + (lane+1)*c.cellSize()
}

// hbOff is the acceptor's heartbeat word, placed after the last slot.
func (c Config) hbOff() int { return c.Slots * c.slotSize() }

// Lane-lease table: three words per proposer lane, after the heartbeat
// word. claim holds the current owner token (CAS-claimed on a quorum),
// renew is the owner's liveness beacon (token<<16 | counter, rewritten
// every laneRenewEvery), floor is the ballot-range reservation ceiling —
// the one word lane *safety* rests on (see lease.go).
func (c Config) laneOff(lane int) int  { return c.hbOff() + 4 + lane*12 }
func (c Config) claimOff(lane int) int { return c.laneOff(lane) }
func (c Config) renewOff(lane int) int { return c.laneOff(lane) + 4 }
func (c Config) floorOff(lane int) int { return c.laneOff(lane) + 8 }

// baseOff is the compaction watermark word: the lowest live logical slot,
// written by the co-located replica when it applies a snapshot decree.
// ckptOff is the replica's 24-byte checkpoint right behind it (layout in
// Replica.checkpoint). Rights are per segment, so both are as remotely
// writable as the slots: a misdirected proposer WRITE could corrupt the
// watermark or the checkpoint the replay audit trusts. Proposers write
// only at computed slot, cell and lane-table offsets.
func (c Config) baseOff() int { return c.hbOff() + 4 + c.Proposers*12 }
func (c Config) ckptOff() int { return c.baseOff() + 4 }

// SegSize is the acceptor segment footprint: all slots, the heartbeat
// word watchdogs probe, the lane-lease table, the compaction base word
// and the checkpoint. Every group has the same layout whether or not it
// leases lanes or compacts.
func (c Config) SegSize() int { return c.ckptOff() + ckptSize }

// Ballots. A ballot is a 16-bit value packed two per control word.
// Lane k proposes ballots k+1, k+1+K, k+1+2K, ... so lanes never collide
// and ballot 0 means "none".

// Ballot identifies one proposal attempt.
type Ballot uint16

// LaneOf recovers the proposer lane that owns a ballot.
func (c Config) LaneOf(b Ballot) int { return (int(b) - 1) % c.Proposers }

// firstBallot is lane's lowest ballot.
func (c Config) firstBallot(lane int) Ballot { return Ballot(lane + 1) }

// nextBallot is lane's smallest ballot strictly greater than after.
func (c Config) nextBallot(lane int, after Ballot) Ballot {
	b := int(lane) + 1
	for b <= int(after) {
		b += c.Proposers
	}
	return Ballot(b)
}

// packCtl/unpackCtl pack the promised and accepted ballots into the
// single CAS word.
func packCtl(promised, accepted Ballot) uint32 {
	return uint32(promised)<<16 | uint32(accepted)
}

func unpackCtl(w uint32) (promised, accepted Ballot) {
	return Ballot(w >> 16), Ballot(w & 0xffff)
}
