package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"gtlb/internal/game"
	"gtlb/internal/noncoop"
	"gtlb/internal/obs"
	"gtlb/internal/queueing"
)

// The §4.3 NASH protocol runs the m users as nodes on a logical ring:
// the token carries the global per-computer load vector, each user
// plays its BEST-REPLY against it, updates the loads in place, adds
// |ΔD_j| to the token's norm and forwards it; the round ends when the
// accumulated norm falls to eps. This runtime runs that ring as a
// two-level hierarchy, so one implementation covers both the paper's
// protocol and its scale-out:
//
//   - m users are partitioned into G shards (game.PlanShards). Each
//     shard has a leader node that drives best-reply sweeps over its
//     members around a ring: the leader sends the working token (the
//     global per-computer load vector plus fencing metadata) to the
//     shard's first member; each member plays its best reply against
//     the token loads, updates them in place and forwards the token to
//     its successor; the last member returns it to the leader. A sweep
//     over k members is k+1 messages with no timers on the members and
//     no allocation per step (each forward is re-encoded into the
//     member's cached forward).
//   - A root node owns the cross-shard iteration. It is down-driven:
//     every activation is a hier.down message carrying the reconciled
//     global load vector and the shard that must sweep against it; the
//     activated shard answers with a hier.partial carrying its new
//     aggregate load. The root activates one shard at a time (block
//     Gauss–Seidel across shards, the scheme game.ShardedBestReply
//     runs), so every shard sweeps against the loads the shards before
//     it already moved.
//
// With one shard and one local sweep per activation (ShardOptions{
// Shards: 1, LocalSweeps: 1}) this is the §4.3 ring itself: users are
// visited in ring order, each best-replies once per round, and a
// round's §4.3 norm ≤ eps ends the run once the certificate below
// holds.
//
// A cycle has two norms. The token norm adds each user's |ΔD_j| at its
// own turn, against loads still moving. The end-of-round norm is the
// §4.3 norm Σ_j |D_j^(l) − D_j^(l−1)| that noncoop.Nash stops on, one
// cycle late: every down carries End, the global loads at the start of
// the cycle, the leader puts them on its first token of the
// activation, and each member times its row against them before it
// replies, adding the change since the last End it was timed against.
// On many small users the token norm needs far more cycles to reach
// eps (EXPERIMENTS.md X8). One rule ends a run: a cycle where either
// norm reaches eps triggers the final gather, and the gathered profile
// must pass the certificate noncoop.Gap ≤ game.GapFactor·eps over the
// survivors' system. The token norm sums each shard's last sweep,
// which cannot see what its first sweep moved, the end-of-round norm
// leaves out skipped shards, and neither sees an ejection; the
// certificate sees all three. A profile that fails it becomes the
// root's view and the cycles resume.
//
// The schedule exists once, in package game, and the in-process oracle
// game.ShardedBestReply drives it too. The root drives game.Schedule:
// the shard loads and their ascending-order reconcile, the active-set
// skip, the rebuild from rows, the choice of stop norm and the stop
// certificate. Each leader drives a game.Shard: the shard's loads and
// the per-activation sweep budget (a lone member sweeps once, End
// rides the first sweep only, sweeping stops early at the shard's eps
// share or once a sweep shrinks the norm by less than half). Each
// member plays noncoop.Stepper. A fault-free run therefore
// performs the oracle's float operations in the oracle's order, and its
// profile is bit-identical to the oracle's (tests pin this). This file
// owns only what a network adds: the messages, fencing, retries, the
// resync that restarts an activation, ejection (a member or shard
// drops out of the schedule) and the final gather.
//
// Fault tolerance fences stale traffic at both levels, by (Epoch, Hop)
// within a shard and by wire round at the root:
//
//   - Shard level: the token carries an (Epoch, Hop) pair; every member
//     bumps Hop as it forwards. A circulation that does not come back
//     is re-sent to the first member under the same (Epoch, Hop):
//     members that already played answer the exact duplicate with their
//     cached forward, so the token resumes at the member that missed
//     it. When the attempts run out the leader resyncs: it bumps the
//     epoch, gathers the members' rows (hier.sync / hier.row — the
//     sync's new epoch fences any zombie token still in flight and
//     names the member's successor), ejects the members that stay
//     silent, rebuilds its local loads and restarts the sweep.
//   - Root level: only the root times out on its link to a leader. When
//     a partial or rows report does not come in time it re-sends the
//     down it waits on (the activation, or the stop of the final
//     gather), which is also the liveness probe, and after bounded
//     attempts it ejects the shard. A leader answers a re-sent down by
//     its round: a round it reported gets the cached report again, and
//     the round it is still working on (retrying its token, resyncing a
//     silent member) gets hier.alive, which restarts the root's count,
//     so a member's failure never reads as its leader's. A leader blocks
//     on the root; the driver deadline is the backstop.
//   - Each timed role waits in one loop: a leader's request (a token or
//     a sync, one deadline per send) and the root's await (a fresh
//     Watchdog per receive). A leader's only other wait, awaitDown,
//     blocks on the root without a timer.
//   - The run ends with a final gather: a resync of every shard whose
//     rows go to the root. A member ejected there leaves the survivors
//     at best replies to loads that still held it; the certificate
//     fails on such rows, and the root resumes reconciliation from them.

// Message kinds used by the hierarchical protocol.
const (
	hierKindToken   = "hier.token"   // leader → member → … → leader: working token
	hierKindPartial = "hier.partial" // leader → root: shard report
	hierKindDown    = "hier.down"    // root → leaders: reconciled loads, re-sent as the probe
	hierKindSync    = "hier.sync"    // leader → member: row sync (epoch fence)
	hierKindRow     = "hier.row"     // member → leader: sync answer
	hierKindRows    = "hier.rows"    // leader → root: final strategy rows
	hierKindAlive   = "hier.alive"   // leader → root: still working on the re-sent down's round
	hierKindStop    = "hier.stop"    // root → leaders → members: run over
)

// hierTokenPayload is the shard-internal working token: the global
// per-computer load vector the member plays against plus the fencing
// metadata. On the first sweep of an activation it also carries End,
// the loads the previous cycle ended at, which each member times its
// row against before it replies, adding the change to EndNorm (End is
// empty on the other sweeps). The token deliberately carries no
// membership list: each member forwards it to the successor its
// leader's last sync named, the epoch/hop fence kills zombie duplicates
// for every member that answered the last resync, and a member ejected
// while a token was in flight may play it harmlessly — its row is
// excluded from the leader's resync rebuild and zeroed in the final
// profile, so a stale play never reaches the global state.
type hierTokenPayload struct {
	Epoch   int
	Hop     int
	Norm    float64
	EndNorm float64
	Loads   []float64
	End     []float64
}

// hierPartialPayload is a leader's report on one activation: the
// shard's new aggregate load, the norm of its last sweep, the
// end-of-round norm its first sweep summed and how many sweeps it ran.
// Ejected lists every user id the shard has ejected so far.
type hierPartialPayload struct {
	Round   int
	Shard   int
	Norm    float64
	EndNorm float64
	Sweeps  int
	Loads   []float64
	Ejected []int32
}

// hierDownPayload is the root's downward message: an activation of one
// shard against the reconciled global loads, or (Stop) the end of the
// cycles, which opens the final gather. End is the global loads the
// previous cycle ended at, for the members' end-of-round norm. Round is
// the wire round, the leaders' dedup fence.
type hierDownPayload struct {
	Round int
	Stop  bool
	Shard int
	Loads []float64
	End   []float64
}

// hierReqPayload is a busy leader's hier.alive: the round of the
// re-sent down it is still working on.
type hierReqPayload struct {
	Round int
}

// hierSyncPayload asks a member for its current strategy row and
// advances the member to Epoch, fencing off any older token still in
// flight — answering the sync is the member's linearization point.
// Next names the member's successor on the ring for that epoch: the
// next live member, or the leader for the last one.
type hierSyncPayload struct {
	Epoch int
	Next  string
}

// hierRowPayload is a member's sync answer.
type hierRowPayload struct {
	User  int
	Epoch int
	S     []float64
}

// hierRowsPayload is a leader's final gather report: the surviving
// members' strategy rows. Round is the wire round of the stop it
// answers, which fences a late report from an earlier gather.
type hierRowsPayload struct {
	Round   int
	Shard   int
	Users   []int32
	Ejected []int32
	Rows    [][]float64
}

// ErrStalled is returned when a run ends without a result: every shard
// was ejected, or the run deadline (ShardOptions.Deadline) passed first,
// whether the protocol was stuck (a crashed root, say) or still
// converging slowly under faults. The result still carries the latest
// profile, so the computation can resume from it as a checkpoint
// (RunNashShardedWith's initial profile).
var ErrStalled = errors.New("dist: protocol stalled")

// errStopped aborts an in-flight wait when a stop arrives.
var errStopped = errors.New("dist: stop received")

// errMemberLost aborts a sync exchange after the retry budget; the
// leader ejects the member.
var errMemberLost = errors.New("dist: shard member silent")

// errTokenLost aborts a circulation after the retry budget; the leader
// resyncs the shard, which ejects the members that stay silent.
var errTokenLost = errors.New("dist: shard token lost")

const rootName = "root"

func shardName(g int) string { return "shard-" + strconv.Itoa(g) }

func userName(j int) string { return "user-" + strconv.Itoa(j) }

// userNames returns userName(j) for each of m users, carved from one
// string.
func userNames(m int) []string {
	var b []byte
	ends := make([]int, m)
	for j := range ends {
		b = strconv.AppendInt(append(b, "user-"...), int64(j), 10)
		ends[j] = len(b)
	}
	all := string(b)
	names := make([]string, m)
	start := 0
	for j, end := range ends {
		names[j], start = all[start:end], end
	}
	return names
}

// tokenBytes is room for an encoded hier.token over n computers that
// carries End, while its epoch and hop fit 32 bits: a member's forward
// buffer of this size holds every token of a run without growing.
func tokenBytes(n int) int {
	return 2 + 2*binary.MaxVarintLen32 + 2*8 + 2*(binary.MaxVarintLen32+8*n)
}

// ShardOptions tunes the hierarchical runtime. The zero value gets
// production-safe defaults.
type ShardOptions struct {
	// Shards is the shard count G; 0 selects
	// game.DefaultShardCount(m). Clamped to [1, m].
	Shards int
	// LocalSweeps caps the best-reply sweeps each shard runs per
	// reconciliation round (default 4, game.ShardedOpts's default).
	// Shards early-exit their sweep budget once the local norm falls
	// below the shard's eps share, a one-member shard sweeps once, and a
	// shard that does not hold every user stops once a sweep shrinks its
	// norm by less than half, since the next reconcile changes the
	// external view it sweeps against (game.Shard.Run). Fault-free
	// rounds/sweeps/messages (EXPERIMENTS.md X8): at m=1000 and eps=1e-3
	// on 32 shards 4 take 9/503/19,878 where 1 takes 12/360/15,431, on
	// the 64-user warm-up of the repository's TCP benchmark 4 take
	// 67/301/10,399 where 1 takes 434/868/30,578, and at m=10,000 4 take
	// 1/490/47,719 where 1 takes 3/939/63,756. With Shards 1,
	// LocalSweeps 1 is the §4.3 ring: each user best-replies once per
	// round, in ring order.
	LocalSweeps int
	// Watchdog is the root's wait for a shard's partial or rows (default
	// 2s), plus a jitter of up to half of it, drawn afresh for every
	// receive. A leader still working on the round it waits on answers
	// the re-sent down with hier.alive, which restarts the shard's count
	// of timeouts (MaxAttempts). It must comfortably exceed one shard
	// sweep.
	Watchdog time.Duration
	// ProbeTimeout is a leader's first wait for a token circulation (the
	// token's trip from the leader through every member of the shard
	// and back) or for a member's sync answer (default 150ms), counted
	// from the send. The wait doubles on each re-send up to
	// 4×ProbeTimeout, and each adds a jitter of up to half of
	// ProbeTimeout.
	ProbeTimeout time.Duration
	// MaxAttempts (default 3) is how many times a leader sends a token
	// or a sync: a token lost MaxAttempts times resyncs the shard, and a
	// member that answers none of MaxAttempts syncs is ejected. The root
	// sends a shard a down 1 + MaxAttempts times, the first send and one
	// re-send on each timeout, and ejects the shard on the timeout after
	// the last.
	MaxAttempts int
	// Deadline bounds the whole run, however far it has got; past it the
	// driver returns ErrStalled (default 60s). No progress watchdog
	// stands behind it.
	Deadline time.Duration
	// Seed drives the retry-jitter streams (one split per node).
	Seed uint64
	// Observer, when non-nil, receives hier.* events (one HierRound per
	// reconciliation round carrying the norm, HierShardEjected,
	// HierSync) plus the nash.* token/retry/ejection kinds for
	// shard-internal traffic.
	Observer obs.Observer
}

func (o ShardOptions) withDefaults() ShardOptions {
	if o.Watchdog <= 0 {
		o.Watchdog = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 150 * time.Millisecond
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Deadline <= 0 {
		o.Deadline = 60 * time.Second
	}
	return o
}

// NashShardedResult is the outcome of a hierarchical run.
type NashShardedResult struct {
	// Profile holds one row per user id. Ejected users' rows are zero.
	Profile noncoop.Profile
	// Rounds is the number of completed reconciliation rounds.
	Rounds int
	// Sweeps is the total number of shard-local sweeps, summed over
	// shards and rounds.
	Sweeps int
	// Norm is the norm that ended the run: the last round's
	// end-of-round norm when that reached eps, otherwise its token norm
	// (package comment).
	Norm float64
	// Ejected lists ejected user ids (ascending), EjectedShards the
	// ejected shard ids (ascending).
	Ejected       []int
	EjectedShards []int
}

// --- member ----------------------------------------------------------

// shardUser is one selfish user on its shard's ring. Its receive loop
// is the protocol's hot path: no timers, one best reply and no
// allocation per step, since the forward to its successor is re-encoded
// into ret's buffer (Send keeps no reference to it).
type shardUser struct {
	conn   Conn
	id     int
	phi    float64
	leader string // the only node whose syncs this member takes
	next   string // ring successor: the next member, or the leader

	row     []float64
	stepper *noncoop.Stepper // over the computers' rates, in a game of the initial m users
	st      noncoop.StepState

	lastEpoch int // fencing; starts at -1
	lastHop   int

	dec     WireDec          // decoder state, so a receive skips the decoder pool
	tok     hierTokenPayload // decode-reuse
	ret     Message          // cached forward, re-sent on exact-duplicate tokens; its Data is re-encoded every step
	haveRet bool

	sync   hierSyncPayload // sync decode scratch
	answer hierRowPayload  // the sync answer
	reply  Message         // the sync answer encoded

	obs   obs.Observer
	errCh chan<- error
}

func (u *shardUser) run() {
	if err := u.serve(); err != nil {
		// A node whose own endpoint crashed or closed dies silently,
		// like the dead process it models; the leader's failure
		// detector handles the fallout.
		if errors.Is(err, ErrCrashed) || errors.Is(err, ErrClosed) {
			return
		}
		u.errCh <- err
	}
}

// serve processes tokens, syncs and stops until the run ends. It
// returns nil on a clean stop.
func (u *shardUser) serve() error {
	for {
		m, err := u.conn.Recv()
		if err != nil {
			return err
		}
		switch m.Kind {
		case hierKindStop:
			return nil
		case hierKindSync:
			p := &u.sync
			p.Next = u.next // a sync that names the same successor decodes without allocating
			if m.From != u.leader || m.decodeWith(&u.dec, p) != nil {
				continue // only the member's own leader may fence or rewire it
			}
			if p.Epoch > u.lastEpoch {
				// The sync is the linearization point: fencing off
				// older epochs here is what keeps a chaos-delayed
				// zombie token from desynchronizing the leader's
				// rebuilt loads.
				u.lastEpoch, u.lastHop = p.Epoch, -1
				u.haveRet = false
				u.next = p.Next
			}
			u.answer = hierRowPayload{User: u.id, Epoch: p.Epoch, S: u.row}
			u.reply.To, u.reply.Kind = m.From, hierKindRow
			if u.reply.Encode(&u.answer) != nil {
				continue
			}
			_ = u.conn.Send(u.reply) // best-effort: the leader retries the sync
			obs.Count(u.obs, obs.HierSync)
		case hierKindToken:
			if err := m.decodeWith(&u.dec, &u.tok); err != nil {
				continue // malformed token; the leader retries
			}
			tok := &u.tok
			if tok.Epoch == u.lastEpoch && tok.Hop == u.lastHop && u.haveRet {
				// Exact duplicate: the circulation was lost further on
				// and the leader re-sent it. Replay the cached forward
				// instead of playing twice, so the token resumes at the
				// member that missed it.
				_ = u.conn.Send(u.ret) // best-effort: the leader re-sends again on loss
				continue
			}
			if tok.Epoch < u.lastEpoch || (tok.Epoch == u.lastEpoch && tok.Hop <= u.lastHop) {
				obs.Count(u.obs, obs.NashTokenStale)
				continue
			}
			u.lastEpoch, u.lastHop = tok.Epoch, tok.Hop
			// No membership check: a member ejected while this token was
			// in flight plays harmlessly — its row is excluded from the
			// leader's resync rebuild and zeroed in the final profile.
			if len(tok.Loads) != len(u.row) || len(tok.End) != 0 && len(tok.End) != len(u.row) {
				continue // malformed token; the leader retries
			}
			if err := u.step(tok); err != nil {
				return err
			}
			tok.Hop++
			u.ret.To, u.ret.Kind = u.next, hierKindToken
			if err := u.ret.Encode(tok); err != nil {
				return err
			}
			u.haveRet = true
			if err := u.conn.Send(u.ret); err != nil {
				return err
			}
			obs.Emit(u.obs, obs.Event{Kind: obs.NashSend, A: int32(u.id), Node: u.conn.Name()})
		default:
			// Stale protocol traffic; drop.
		}
	}
}

// step plays one best reply against the token loads with the kernel
// game.ShardedBestReply runs, accumulating both norms in the oracle's
// order.
func (u *shardUser) step(tok *hierTokenPayload) error {
	d, dEnd, err := u.stepper.Step(tok.Loads, tok.End, u.row, u.phi, &u.st)
	if err != nil {
		return fmt.Errorf("dist: user %d best reply: %w", u.id, err)
	}
	tok.Norm = game.SatAdd(tok.Norm, d)
	tok.EndNorm = game.SatAdd(tok.EndNorm, dEnd)
	return nil
}

// --- leader ----------------------------------------------------------

// shardLeader drives one shard's sweeps and reports them to the root.
type shardLeader struct {
	conn Conn
	g    int
	n    int

	ids          []int // live members, token order
	names        []string
	phis         []float64
	rows         [][]float64 // member rows, valid after a resync
	ejected      []int32     // cumulative ejected member ids
	ejectedNames []string

	sh *game.Shard // the shard's loads and its per-activation sweep budget

	tok      hierTokenPayload   // working token; Loads is sh.Loads
	tokMsg   Message            // tok encoded; its Data is re-encoded every sweep
	ret      hierTokenPayload   // return decode scratch
	sync     hierSyncPayload    // the sync syncMember sends
	syncMsg  Message            // sync encoded; its Data is re-encoded every sync
	answer   hierRowPayload     // sync answer decode scratch
	down     hierDownPayload    // down decode scratch
	up       hierPartialPayload // the partial sendUp encodes
	epoch    int
	hop      int
	needSync bool // the ring changed or lost the token; resync before the next sweep

	curRound      int // wire round of the down being served
	lastDownRound int // newest down round seen (dedup fence)

	report    Message // the one report buffer: the last partial or rows, replayed on a re-sent down
	reportRnd int     // the wire round report answers

	probeTO  time.Duration
	attempts int
	rng      *queueing.RNG
	obs      obs.Observer
	errCh    chan<- error
}

func (l *shardLeader) run() {
	err := l.protocol()
	if err == nil || errors.Is(err, errStopped) {
		l.stopMembers()
		return
	}
	if errors.Is(err, ErrCrashed) || errors.Is(err, ErrClosed) {
		return // silent death; the root's failure detector reacts
	}
	l.errCh <- err
}

// stopMembers forwards the shutdown to every member, including ejected
// ones (an ejected-but-alive member is merely partitioned and may still
// be reachable).
func (l *shardLeader) stopMembers() {
	for _, name := range l.names {
		_ = l.conn.Send(Message{To: name, Kind: hierKindStop}) // best-effort shutdown signal
	}
	for _, name := range l.ejectedNames {
		_ = l.conn.Send(Message{To: name, Kind: hierKindStop}) // best-effort shutdown signal
	}
}

// protocol is the leader's down-driven main loop: wait for the root's
// next activation, sweep if it activates this shard, report the
// partial, repeat. The root owns all cross-shard control flow.
func (l *shardLeader) protocol() error {
	for {
		down, err := l.awaitDown()
		for err == nil && down.Stop {
			down, err = l.finalGather()
		}
		if err != nil {
			return err
		}
		if down.Shard != l.g {
			continue // another shard's activation
		}
		if len(down.Loads) != l.n || len(down.End) != l.n {
			return fmt.Errorf("dist: shard %d: malformed down loads (len %d and %d, want %d)", l.g, len(down.Loads), len(down.End), l.n)
		}
		l.sh.Activate(down.Loads, down.End)
		if err := l.sweepRound(); err != nil {
			return err
		}
		if err := l.sendUp(); err != nil {
			return err
		}
	}
}

// sweepRound plays the activation (game.Shard.Run), circulating each
// sweep through the members, and restarts it after a resync when a
// circulation is lost.
func (l *shardLeader) sweepRound() error {
	for {
		if l.needSync {
			if err := l.resync(); err != nil {
				return err
			}
		}
		err := l.sh.Run(len(l.ids), l.circulate)
		if !errors.Is(err, errTokenLost) {
			return err
		}
		// The resync opens a fresh epoch: the leader regenerates the
		// token from the members' rows.
		obs.Count(l.obs, obs.NashTokenRegenerated)
		l.needSync = true
	}
}

// request encodes p into m once, sends m until accept takes a reply,
// and reports false once MaxAttempts sends have gone unanswered. Each
// send fixes its own deadline, a backoffDelay after it, which nothing
// that arrives meanwhile moves: the root's re-sent downs go to
// handleOOB, a stop ends the wait with errStopped, and a token that
// accept rejects is a stale one.
func (l *shardLeader) request(m *Message, p WireEncoder, accept func(Message) bool) (bool, error) {
	if err := m.Encode(p); err != nil {
		return false, err
	}
	for a := 0; a < l.attempts; a++ {
		if err := l.conn.Send(*m); err != nil {
			return false, err
		}
		if m.Kind == hierKindToken {
			obs.Emit(l.obs, obs.Event{Kind: obs.NashSend, A: int32(l.g), Node: l.conn.Name()})
		}
		deadline := time.Now().Add(backoffDelay(l.probeTO, 4*l.probeTO, a, l.rng))
		for {
			var r Message
			err := ErrTimeout // a spent deadline, since RecvTimeout blocks forever on d <= 0
			if d := time.Until(deadline); d > 0 {
				r, err = l.conn.RecvTimeout(d)
			}
			if errors.Is(err, ErrTimeout) {
				obs.Count(l.obs, obs.NashTimeout)
				if a < l.attempts-1 {
					obs.Count(l.obs, obs.NashRetry)
				}
				break
			}
			if err != nil {
				return false, err
			}
			switch {
			case r.Kind == hierKindStop:
				return false, errStopped
			case r.Kind == hierKindDown:
				l.handleOOB(r)
			case accept(r):
				return true, nil
			case r.Kind == hierKindToken:
				obs.Count(l.obs, obs.NashTokenStale)
			}
		}
	}
	return false, nil
}

// circulate sends the working token, carrying end, once around the
// ring — to the first member, member to member, and back from the last
// — and returns the sweep's norm and end-of-round norm. An attempt that
// does not come back in time re-sends the same (Epoch, Hop) token to
// the first member; exhausted attempts report errTokenLost.
func (l *shardLeader) circulate(end []float64) (float64, float64, error) {
	start := l.hop + 1
	back := start + len(l.ids) // every member bumps Hop as it forwards
	l.tok.Epoch, l.tok.Hop, l.tok.Norm, l.tok.EndNorm, l.tok.End = l.epoch, start, 0, 0, end
	l.tokMsg.To, l.tokMsg.Kind = l.names[0], hierKindToken
	ok, err := l.request(&l.tokMsg, &l.tok, func(r Message) bool {
		return r.Kind == hierKindToken && r.Decode(&l.ret) == nil && l.ret.Epoch == l.epoch && l.ret.Hop == back
	})
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		return 0, 0, errTokenLost
	}
	if len(l.ret.Loads) != l.n {
		return 0, 0, fmt.Errorf("dist: shard %d: malformed token return", l.g)
	}
	copy(l.tok.Loads, l.ret.Loads)
	l.hop = back
	return l.ret.Norm, l.ret.EndNorm, nil
}

func (l *shardLeader) ejectMember(idx int) {
	l.ejected = append(l.ejected, int32(l.ids[idx]))
	l.ejectedNames = append(l.ejectedNames, l.names[idx])
	l.ids = append(l.ids[:idx], l.ids[idx+1:]...)
	l.names = append(l.names[:idx], l.names[idx+1:]...)
	l.phis = append(l.phis[:idx], l.phis[idx+1:]...)
	l.rows = append(l.rows[:idx], l.rows[idx+1:]...)
}

// resync opens a new epoch, gathers every surviving member's strategy
// row (ejecting silent members) and rebuilds the shard's local loads
// from them. Members answering the sync advance their epoch fence, so
// any token from the old epoch still in flight is dead on arrival — the
// rebuilt loads stay consistent. Members are synced from the last to
// the first, so each sync can name a successor already known to be
// alive.
func (l *shardLeader) resync() error {
	l.epoch++
	l.hop = 0
	l.needSync = false
	next := l.conn.Name()
	for idx := len(l.ids) - 1; idx >= 0; idx-- {
		row, err := l.syncMember(idx, next)
		if errors.Is(err, errMemberLost) {
			l.ejectMember(idx)
			continue
		}
		if err != nil {
			return err
		}
		if cap(l.rows[idx]) < l.n {
			l.rows[idx] = make([]float64, l.n)
		}
		l.rows[idx] = l.rows[idx][:l.n]
		copy(l.rows[idx], row)
		next = l.names[idx]
	}
	l.sh.Rebuild(l.rows, l.phis)
	return nil
}

// syncMember requests member idx's row under the current epoch and
// names next as its successor.
func (l *shardLeader) syncMember(idx int, next string) ([]float64, error) {
	l.sync = hierSyncPayload{Epoch: l.epoch, Next: next}
	l.syncMsg.To, l.syncMsg.Kind = l.names[idx], hierKindSync
	p := &l.answer
	ok, err := l.request(&l.syncMsg, &l.sync, func(r Message) bool {
		return r.Kind == hierKindRow && r.Decode(p) == nil && p.Epoch == l.epoch && p.User == l.ids[idx] && len(p.S) == l.n
	})
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("dist: shard %d: member %s: %w", l.g, l.names[idx], errMemberLost)
	}
	return p.S, nil
}

// sendUp reports this activation to the root.
func (l *shardLeader) sendUp() error {
	l.up = hierPartialPayload{
		Round: l.curRound, Shard: l.g,
		Norm: l.sh.Norm, EndNorm: l.sh.EndNorm, Sweeps: l.sh.Sweeps,
		Loads:   l.sh.Local,
		Ejected: l.ejected,
	}
	return l.sendReport(hierKindPartial, &l.up)
}

// sendReport encodes p into the report buffer and sends it to the root.
// Only the latest report is ever replayed, and Send keeps no reference
// to the buffer, so one serves every partial and rows report.
func (l *shardLeader) sendReport(kind string, p WireEncoder) error {
	l.report.To, l.report.Kind = rootName, kind
	if err := l.report.Encode(p); err != nil {
		return err
	}
	l.reportRnd = l.curRound
	return l.conn.Send(l.report)
}

// awaitDown blocks until the root's next down; the root re-sends a down
// it gets no report for. A duplicate of an already-served round means
// the root lost our report: the cached one is replayed.
func (l *shardLeader) awaitDown() (*hierDownPayload, error) {
	for {
		r, err := l.conn.Recv()
		if err != nil {
			return nil, err
		}
		switch r.Kind {
		case hierKindDown:
			if r.Decode(&l.down) != nil {
				continue
			}
			if l.down.Round <= l.lastDownRound {
				if l.down.Round == l.reportRnd && l.report.Data != nil {
					_ = l.conn.Send(l.report) // best-effort replay; the root re-sends the down again
				}
				continue
			}
			l.lastDownRound = l.down.Round
			l.curRound = l.down.Round
			return &l.down, nil
		case hierKindStop:
			return nil, errStopped
		default:
			// Stale tokens or sync answers: drop.
		}
	}
}

// finalGather resyncs the surviving members' rows under a fresh epoch,
// reports them to the root and waits in awaitDown, which replays them
// for each re-sent stop. The shutdown ends it with errStopped. A newer
// down means the root resumed reconciliation — the rows failed the stop
// certificate — and is returned for the protocol loop to serve.
func (l *shardLeader) finalGather() (*hierDownPayload, error) {
	if err := l.resync(); err != nil {
		return nil, err
	}
	users := make([]int32, len(l.ids))
	for i, id := range l.ids {
		users[i] = int32(id)
	}
	l.report.Data = nil // the rows get one buffer of their size, not growth from a partial's
	err := l.sendReport(hierKindRows, hierRowsPayload{
		Round: l.curRound, Shard: l.g,
		Users:   users,
		Ejected: l.ejected,
		Rows:    l.rows,
	})
	if err != nil {
		return nil, err
	}
	return l.awaitDown()
}

// handleOOB answers a down that arrives while the leader is busy with a
// sweep or the final gather's resync: the root re-sent the down of the
// round the leader is still working on, so it gets a hier.alive and the
// root keeps waiting. A down of any other round is stale and dropped.
func (l *shardLeader) handleOOB(r Message) {
	// Only the Round is read, into a scratch payload: the activation
	// being swept keeps l.down.End by reference (game.Shard.Activate),
	// so decoding a re-sent down into l.down would overwrite it.
	var p hierDownPayload
	if r.Decode(&p) != nil || p.Round != l.curRound {
		return
	}
	alive := Message{To: rootName, Kind: hierKindAlive}
	if alive.Encode(hierReqPayload{Round: p.Round}) == nil {
		_ = l.conn.Send(alive) // best-effort; the root re-sends again
	}
}

// --- root ------------------------------------------------------------

// rootNode drives the shared cross-shard schedule (game.Schedule) over
// the network: it activates shards, detects shard failures, certifies
// the gathered rows and assembles the final profile.
type rootNode struct {
	conn      Conn
	numShards int
	n         int
	mu        []float64

	phis        []float64 // per user id
	userEjected []bool

	leaders []string
	leaderG map[string]int
	sched   *game.Schedule

	downRound int // monotone wire round of downs

	down       hierDownPayload    // the down encodeDown encodes
	part       hierPartialPayload // partial decode scratch
	cachedDown []byte             // the root's one down buffer: the latest down, re-sent on a timeout

	// owes[g] is set while shard g owes an answer to the current down,
	// and tries[g] counts the timeouts it has gone unanswered since it
	// was sent that down or last said it was alive. An ejected shard
	// owes nothing.
	owes  []bool
	tries []int

	rowsIn    hierRowsPayload // rows report decode scratch
	rowsUsers [][]int32
	rowsRows  [][][]float64

	runErr error

	watchdog  time.Duration
	attemptsN int
	rng       *queueing.RNG
	obs       obs.Observer
	errCh     chan<- error
	result    *NashShardedResult
	resMu     *sync.Mutex
}

func (rt *rootNode) run() {
	err := rt.protocol()
	if err != nil {
		if errors.Is(err, ErrCrashed) || errors.Is(err, ErrClosed) {
			return // silent; the driver deadline reports ErrStalled
		}
		rt.errCh <- err
		return
	}
	rt.errCh <- rt.runErr
}

// allEjected is ErrStalled once the root has ejected every shard, in
// the cycles or in a final gather: no survivor is left to certify.
func (rt *rootNode) allEjected() error {
	for g := 0; g < rt.numShards; g++ {
		if rt.sched.Live(g) {
			return nil
		}
	}
	return fmt.Errorf("dist: all %d shards ejected: %w", rt.numShards, ErrStalled)
}

// protocol runs reconciliation cycles until a cycle's token norm or
// end-of-round norm reaches eps and the gathered rows pass the stop
// certificate (package comment); rows that fail it become the root's
// view and the cycles resume.
func (rt *rootNode) protocol() error {
	for {
		if err := rt.sequentialCycle(); err != nil {
			return err
		}
		if err := rt.allEjected(); err != nil {
			return err
		}
		gather := rt.sched.EndRound()
		obs.Emit(rt.obs, obs.Event{Kind: obs.HierRound, Time: float64(rt.sched.Rounds), V: rt.sched.Norm, Node: rootName})
		if !gather {
			continue
		}
		if err := rt.broadcastStop(); err != nil {
			return err
		}
		if err := rt.await(); err != nil {
			return err
		}
		if err := rt.allEjected(); err != nil {
			return err
		}
		rows := rt.gatheredRows()
		gap, err := rt.survivorGap(rows)
		if err != nil {
			return err
		}
		done, err := rt.sched.Settle(gap)
		if !done {
			rt.sched.Rebuild(rows, rt.phis)
			continue
		}
		if err != nil {
			rt.runErr = fmt.Errorf("dist: sharded NASH %w", err)
		}
		rt.assemble(rows)
		rt.shutdown()
		return nil
	}
}

// gatheredRows indexes the last gather's rows by user id: the members of
// every live shard that reported, nil for everyone else (ejected
// users).
func (rt *rootNode) gatheredRows() [][]float64 {
	rows := make([][]float64, len(rt.phis))
	for g := 0; g < rt.numShards; g++ {
		if !rt.sched.Live(g) {
			continue
		}
		for k, id := range rt.rowsUsers[g] {
			rows[id] = rt.rowsRows[g][k]
		}
	}
	return rows
}

// survivorGap is the stop certificate over the gathered rows:
// noncoop.Gap of the survivors' system, users in id order. With no one
// gone, that is the whole system and, fault-free, the oracle's profile,
// so the oracle's certificate reads the same float.
func (rt *rootNode) survivorGap(rows [][]float64) (float64, error) {
	sys := noncoop.System{Mu: rt.mu, Phi: rt.phis}
	prof := noncoop.Profile{S: rows}
	if slices.ContainsFunc(rows, func(row []float64) bool { return row == nil }) {
		sys.Phi, prof.S = nil, nil
		for id, row := range rows {
			if row != nil {
				sys.Phi = append(sys.Phi, rt.phis[id])
				prof.S = append(prof.S, row)
			}
		}
	}
	gap, err := noncoop.Gap(sys, prof)
	if err != nil {
		return 0, fmt.Errorf("dist: stop certificate: %w", err)
	}
	return gap, nil
}

// sequentialCycle activates each shard the schedule does not skip in
// turn: targeted down, await its partial (re-sending the down and
// ultimately ejecting a silent shard), which the schedule reconciles at
// once. A skipped shard's leader sits parked in awaitDown until a down
// names it.
func (rt *rootNode) sequentialCycle() error {
	rt.sched.BeginRound()
	for g := 0; g < rt.numShards; g++ {
		if rt.sched.Skip(g) {
			continue
		}
		if err := rt.sendDown(g); err != nil {
			return err
		}
		if err := rt.await(); err != nil {
			return err
		}
	}
	return nil
}

// sendDown activates shard g for the next wire round with the current
// global view and the loads the previous cycle ended at.
func (rt *rootNode) sendDown(g int) error {
	rt.downRound++
	rt.down = hierDownPayload{Round: rt.downRound, Shard: g, Loads: rt.sched.Global(), End: rt.sched.End()}
	if err := rt.encodeDown(); err != nil {
		return err
	}
	rt.openDown(g)
	return nil
}

// openDown sends shard g the current down and starts its wait for the
// answer.
func (rt *rootNode) openDown(g int) {
	rt.owes[g], rt.tries[g] = true, 0
	_ = rt.conn.Send(Message{To: rt.leaders[g], Kind: hierKindDown, Data: rt.cachedDown}) // best-effort: await re-sends on timeout
}

// encodeDown re-encodes rt.down into cachedDown. One buffer serves every
// down: only the latest is ever replayed, and Send keeps no reference to
// it.
func (rt *rootNode) encodeDown() error {
	m := Message{Kind: hierKindDown, Data: rt.cachedDown}
	if err := m.Encode(&rt.down); err != nil {
		return err
	}
	rt.cachedDown = m.Data
	return nil
}

// await waits until no shard owes an answer to the current down: the
// activated shard's partial, or every live shard's rows after a stop.
// Every receive waits a fresh Watchdog plus jitter. On a timeout each
// shard still owing its answer gets the down again, which is also the
// liveness probe, or is ejected once 1 + MaxAttempts downs went
// unanswered. A hier.alive for the current round restarts its sender's
// count: the leader is still working on that round.
func (rt *rootNode) await() error {
	for slices.Contains(rt.owes, true) {
		m, err := rt.conn.RecvTimeout(backoffDelay(rt.watchdog, rt.watchdog, 0, rt.rng))
		if errors.Is(err, ErrTimeout) {
			rt.onTimeout()
			continue
		}
		if err != nil {
			return err
		}
		switch m.Kind {
		case hierKindPartial:
			rt.onPartial(m)
		case hierKindRows:
			rt.onRows(m)
		case hierKindAlive:
			var p hierReqPayload
			if g, known := rt.leaderG[m.From]; known && m.Decode(&p) == nil && p.Round == rt.downRound {
				rt.tries[g] = 0
			}
		}
	}
	return nil
}

// onTimeout re-sends the cached down to every shard that owes an answer
// to it, or ejects the shard once its attempts are spent.
func (rt *rootNode) onTimeout() {
	obs.Count(rt.obs, obs.NashTimeout)
	for g, owes := range rt.owes {
		if !owes {
			continue
		}
		rt.tries[g]++
		if rt.tries[g] > rt.attemptsN {
			rt.ejectShard(g)
			continue
		}
		obs.Count(rt.obs, obs.NashRetry)
		_ = rt.conn.Send(Message{To: rt.leaders[g], Kind: hierKindDown, Data: rt.cachedDown}) // best-effort re-send and probe; the next timeout retries
	}
}

func (rt *rootNode) onPartial(m Message) {
	p := &rt.part
	if m.Decode(p) != nil {
		return
	}
	if p.Round != rt.downRound {
		return // stale round
	}
	if g := p.Shard; !rt.down.Stop && g == rt.down.Shard && rt.owes[g] && len(p.Loads) == rt.n {
		rt.sched.Report(g, p.Loads, p.Norm, p.EndNorm, p.Sweeps)
		rt.owes[g] = false
	}
	for _, id := range p.Ejected {
		rt.ejectUser(int(id))
	}
}

// ejectUser marks a user id ejected (idempotently) and takes it out of
// its shard in the schedule.
func (rt *rootNode) ejectUser(id int) {
	if id < 0 || id >= len(rt.userEjected) || rt.userEjected[id] {
		return
	}
	rt.userEjected[id] = true
	rt.sched.EjectUser(id)
	obs.Count(rt.obs, obs.NashEjected)
}

// ejectShard takes a silent shard out of the reconcile and ejects its
// members.
func (rt *rootNode) ejectShard(g int) {
	for _, id := range rt.sched.EjectShard(g) {
		rt.ejectUser(id)
	}
	rt.owes[g] = false
	obs.Emit(rt.obs, obs.Event{Kind: obs.HierShardEjected, A: int32(g), Node: rootName})
}

// broadcastStop ends the cycles at every live leader, which opens the
// final gather.
func (rt *rootNode) broadcastStop() error {
	rt.downRound++
	rt.down = hierDownPayload{Round: rt.downRound, Stop: true}
	if err := rt.encodeDown(); err != nil {
		return err
	}
	for g := 0; g < rt.numShards; g++ {
		if rt.sched.Live(g) {
			rt.openDown(g)
		}
	}
	return nil
}

// onRows keeps a live shard's final strategy rows: its answer to the
// stop of the current gather.
func (rt *rootNode) onRows(m Message) {
	p := &rt.rowsIn
	if m.Decode(p) != nil {
		return
	}
	g := p.Shard
	if p.Round != rt.downRound || g < 0 || g >= rt.numShards || !rt.owes[g] || !rt.validRows(p) {
		return // a late report from an earlier gather, or not a live shard's
	}
	rt.rowsUsers[g] = append([]int32(nil), p.Users...)
	rt.rowsRows[g] = make([][]float64, len(p.Rows))
	flat := make([]float64, len(p.Rows)*rt.n)
	for i, row := range p.Rows {
		rt.rowsRows[g][i] = flat[i*rt.n : (i+1)*rt.n : (i+1)*rt.n]
		copy(rt.rowsRows[g][i], row)
	}
	rt.owes[g] = false
	for _, id := range p.Ejected {
		rt.ejectUser(int(id))
	}
}

// validRows reports whether a rows report is well formed: one row of
// length n per known user id.
func (rt *rootNode) validRows(p *hierRowsPayload) bool {
	if len(p.Rows) != len(p.Users) {
		return false
	}
	for i, id := range p.Users {
		if int(id) < 0 || int(id) >= len(rt.phis) || len(p.Rows[i]) != rt.n {
			return false
		}
	}
	return true
}

// assemble publishes the final result from the gathered rows: one
// profile row per user id, zero for ejected users.
func (rt *rootNode) assemble(rows [][]float64) {
	prof := noncoop.NewProfile(len(rows), rt.n)
	for id, row := range rows {
		copy(prof.S[id], row)
	}
	var ejected []int // ascending, as the ids are walked
	for id, e := range rt.userEjected {
		if e {
			ejected = append(ejected, id)
		}
	}
	var ejectedShards []int
	for g := 0; g < rt.numShards; g++ {
		if !rt.sched.Live(g) {
			ejectedShards = append(ejectedShards, g)
		}
	}
	rt.resMu.Lock()
	rt.result.Profile = prof
	rt.result.Rounds = rt.sched.Rounds
	rt.result.Sweeps = rt.sched.Sweeps
	rt.result.Norm = rt.sched.Norm
	rt.result.Ejected = ejected
	rt.result.EjectedShards = ejectedShards
	rt.resMu.Unlock()
}

// shutdown broadcasts the stop to every leader, ejected ones included:
// they may be alive behind a partition.
func (rt *rootNode) shutdown() {
	for g := 0; g < rt.numShards; g++ {
		_ = rt.conn.Send(Message{To: rt.leaders[g], Kind: hierKindStop}) // best-effort shutdown signal
	}
}

// --- driver ----------------------------------------------------------

// RunNashShardedWith executes the §4.3 NASH protocol as a hierarchy
// over the given network, tuned by opts. eps is the acceptance
// tolerance on the per-round global norms and maxRounds bounds the
// reconciliation rounds. A nil error means the final round's token norm
// or end-of-round norm is at most eps and one more flat best-reply round
// over the survivors' profile moves their response times by at most
// game.GapFactor·eps in total (noncoop.Gap). A fault-free run returns a
// profile bit-identical to game.ShardedBestReply on the same system and
// shard plan.
//
// A nil initial starts every user from the NASH_P proportional
// initialization; otherwise the users resume from that checkpoint —
// typically the Profile of a result whose run was cut short (crash,
// round budget) — so a restarted computation converges to the same
// equilibrium without redoing the completed rounds. Even on error the
// returned result carries the latest profile, usable as the next
// checkpoint.
func RunNashShardedWith(netw Network, sys noncoop.System, initial *noncoop.Profile, eps float64, maxRounds int, opts ShardOptions) (NashShardedResult, error) {
	if err := sys.Validate(); err != nil {
		return NashShardedResult{}, err
	}
	opts = opts.withDefaults()
	m, n := sys.NumUsers(), sys.NumComputers()
	numShards := opts.Shards
	if numShards <= 0 {
		numShards = game.DefaultShardCount(m)
	}
	plan := game.PlanShards(m, numShards)
	numShards = len(plan)

	// The checkpoint, or the NASH_P proportional initialization
	// identical to the oracle's.
	var prof noncoop.Profile
	if initial != nil {
		if err := sys.ValidateProfile(*initial); err != nil {
			return NashShardedResult{}, fmt.Errorf("dist: checkpoint profile invalid: %w", err)
		}
		prof = initial.Clone()
	} else {
		prof, _ = noncoop.PS{}.Profile(sys) // sys was validated above
	}
	// The root and the leaders start from the oracle's shard loads and
	// global view, so round 1 starts from bit-identical state.
	sched := game.NewSchedule(m, n, plan, eps, maxRounds, opts.LocalSweeps)
	sched.Rebuild(prof.S, sys.Phi)
	shards := make([]*game.Shard, numShards)
	for g := range shards {
		shards[g] = sched.NewShard(g)
	}

	rootConn, err := netw.Join(rootName)
	if err != nil {
		return NashShardedResult{}, err
	}
	leaderConns := make([]Conn, numShards)
	userConns := make([]Conn, m)
	result := &NashShardedResult{}
	var resMu sync.Mutex
	errCh := make(chan error, 1+numShards+m)
	var wg, userWG sync.WaitGroup // the root and the leaders; the members
	var stopOnce sync.Once
	teardown := func() {
		stopOnce.Do(func() {
			// The members go last: a leader that holds the root's stop
			// forwards it before it sees its own endpoint closed, and its
			// members are still there to take it.
			_ = rootConn.Close() // teardown; unblocks the root
			for _, c := range leaderConns {
				if c != nil {
					_ = c.Close() // teardown; unblocks the leader
				}
			}
			wg.Wait()
			for _, c := range userConns {
				if c != nil {
					_ = c.Close() // teardown; unblocks the user
				}
			}
			userWG.Wait()
		})
	}
	defer teardown()
	for g := 0; g < numShards; g++ {
		c, err := netw.Join(shardName(g))
		if err != nil {
			return NashShardedResult{}, err
		}
		leaderConns[g] = c
	}
	names := userNames(m)
	for j, name := range names {
		c, err := netw.Join(name)
		if err != nil {
			return NashShardedResult{}, err
		}
		userConns[j] = c
	}

	leaders := make([]string, numShards)
	leaderG := make(map[string]int, numShards)
	for g := range leaders {
		leaders[g] = shardName(g)
		leaderG[leaders[g]] = g
	}
	rt := &rootNode{
		conn: rootConn, numShards: numShards, n: n, mu: sys.Mu,
		phis:        sys.Phi,
		userEjected: make([]bool, m),
		leaders:     leaders,
		leaderG:     leaderG,
		sched:       sched,
		owes:        make([]bool, numShards),
		tries:       make([]int, numShards),
		rowsUsers:   make([][]int32, numShards),
		rowsRows:    make([][][]float64, numShards),
		watchdog:    opts.Watchdog,
		attemptsN:   opts.MaxAttempts,
		rng:         queueing.NewRNG(opts.Seed).Split(1),
		obs:         opts.Observer,
		errCh:       errCh, result: result, resMu: &resMu,
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rt.run()
	}()

	// The leaders' row buffers, one per member, in one slab.
	rowSlab := make([]float64, m*n)
	for g := 0; g < numShards; g++ {
		members := plan[g]
		memberNames := make([]string, len(members))
		phis := make([]float64, len(members))
		rows := make([][]float64, len(members))
		for i, j := range members {
			memberNames[i] = names[j]
			phis[i] = sys.Phi[j]
			rows[i] = rowSlab[j*n : (j+1)*n : (j+1)*n]
		}
		l := &shardLeader{
			conn: leaderConns[g], g: g, n: n,
			ids: append([]int(nil), members...), names: memberNames, phis: phis, rows: rows,
			sh:       shards[g],
			tok:      hierTokenPayload{Loads: shards[g].Loads},
			probeTO:  opts.ProbeTimeout,
			attempts: opts.MaxAttempts,
			rng:      queueing.NewRNG(opts.Seed).Split(uint64(g) + 2),
			obs:      opts.Observer,
			errCh:    errCh,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run()
		}()
	}
	// The members, their steppers and the buffers they decode the token
	// into and encode their forward into, each in one slab: a member
	// allocates nothing on its first token.
	users := make([]shardUser, m)
	steppers := noncoop.NewSteppers(sys.Mu, m, m)
	tokFloats := make([]float64, 2*m*n)
	tb := tokenBytes(n)
	bufs := make([]byte, m*tb)
	for g, members := range plan {
		for i, j := range members {
			next := leaders[g] // the last member returns the token
			if i+1 < len(members) {
				next = names[members[i+1]]
			}
			f := tokFloats[2*j*n : 2*(j+1)*n : 2*(j+1)*n]
			buf := bufs[j*tb : j*tb : (j+1)*tb]
			u := &users[j]
			*u = shardUser{
				conn: userConns[j], id: j, phi: sys.Phi[j],
				leader: leaders[g], next: next,
				row:       prof.S[j],
				stepper:   &steppers[j],
				lastEpoch: -1, lastHop: -1,
				tok:   hierTokenPayload{Loads: f[:0:n], End: f[n:n]},
				ret:   Message{Data: buf},
				obs:   opts.Observer,
				errCh: errCh,
			}
			userWG.Add(1)
			go func() {
				defer userWG.Done()
				u.run()
			}()
		}
	}

	var runErr error
	deadline := time.NewTimer(opts.Deadline)
	defer deadline.Stop()
	select {
	case runErr = <-errCh:
	case <-deadline.C:
		runErr = fmt.Errorf("dist: run deadline %v passed: %w", opts.Deadline, ErrStalled)
	}
	teardown()
	resMu.Lock()
	defer resMu.Unlock()
	if result.Profile.S == nil {
		// The root never assembled (stall or protocol error): hand back
		// the driver-side profile as a checkpoint. The userWG.Wait above is
		// the happens-before edge making the user-mutated rows safe to
		// read.
		result.Profile = prof
	}
	return *result, runErr
}
