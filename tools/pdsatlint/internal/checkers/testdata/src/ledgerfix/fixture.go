// Package ledgerfix is the ledger fixture: mutations of the accounting
// table's paired counters must be reachable from a ledger method.
package ledgerfix

// Counters mirrors the accounting table.
type Counters struct {
	Evaluations        int
	SamplesPlanned     int
	SamplesSkipped     int
	SubproblemsSolved  int
	SubproblemsAborted int
}

// add is reachable from ledger.note.
func (c *Counters) add(d Counters) {
	c.SamplesPlanned += d.SamplesPlanned
	c.SamplesSkipped += d.SamplesSkipped
}

// ledger mirrors the accounting root type.
type ledger struct {
	c  Counters
	up *ledger
}

func (l *ledger) note(d Counters) {
	for ; l != nil; l = l.up {
		l.c.add(d)
	}
}

func (l *ledger) absorb(results []int) {
	absorbResults(results, &l.c)
}

// absorbResults mutates the table it is handed, and it is reachable from
// ledger.absorb.
func absorbResults(results []int, c *Counters) {
	for range results {
		c.SubproblemsSolved++
	}
}

// skipViaHelper routes the skip accounting through a helper; the helper
// is reachable from this ledger method, so both are fine.
func (l *ledger) skipViaHelper(n int) {
	bumpSkipped(l, n)
}

func bumpSkipped(l *ledger, n int) {
	l.c.SamplesSkipped += n
}

// Scope mirrors a type that embeds the ledger: its methods are not the
// accounting surface, the ledger's are.
type Scope struct {
	ledger
	seed int64
}

// evaluate goes through the ledger.
func (s *Scope) evaluate(n int) {
	s.note(Counters{SamplesPlanned: n})
}

// shortcut writes the scope's own table and forgets the roll-up.
func (s *Scope) shortcut(n int) {
	s.c.SamplesPlanned += n // want `mutates ledger counter\(s\) SamplesPlanned`
}

// sneaky bypasses the ledger: nothing on the accounting surface reaches it.
func sneaky(l *ledger) {
	l.c.SamplesPlanned++ // want `mutates ledger counter\(s\) SamplesPlanned`
}

// Report has a field named like a counter and is no accounting table.
type Report struct {
	SubproblemsAborted int
}

func tally(r *Report) {
	r.SubproblemsAborted++
}

// reserve touches a field of the table that is outside the paired ledger.
func reserve(c *Counters, n int) {
	c.Evaluations += n
}
