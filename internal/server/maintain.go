package server

import (
	"log"
	"path/filepath"
	"sync/atomic"
	"time"

	"lwcomp/internal/compact"
	"lwcomp/internal/scrub"
	"lwcomp/internal/storage"
)

// This file is the server's one maintenance plane: background
// compaction (`lwc compact`) and scrubbing (`lwc verify`, plus `lwc
// repair` when healing) are two kinds of sweep through one ticker loop,
// one gate and one reload. A sweep never takes an admission slot and
// waits for spare capacity before every container; sweepMu runs one
// sweep of either kind at a time (a tick or trigger that finds it held
// is dropped); a sweep that changed the directory re-mounts it, so
// in-flight queries drain on the retired generation while new ones open
// the rewritten files; and Close's stop channel ends the loops and
// aborts any sweep, on-demand ones included, at its next yield.

// sweepResult summarizes one compaction sweep for /-/compact and the
// logs.
type sweepResult struct {
	// Rewritten, Merged, Skipped and Failed count the sweep's
	// per-container outcomes.
	Rewritten int `json:"rewritten"`
	// Merged counts coalesced containers written.
	Merged int `json:"merged"`
	// Skipped counts containers under the rewrite threshold.
	Skipped int `json:"skipped"`
	// Failed counts containers kept on their old generation.
	Failed int `json:"failed"`
	// BytesReclaimed is the sweep's realized byte win.
	BytesReclaimed int64 `json:"bytes_reclaimed"`
	// Reloaded reports whether the sweep changed the directory and
	// re-mounted.
	Reloaded bool `json:"reloaded"`
	// Aborted reports a sweep cut short by server shutdown.
	Aborted bool `json:"aborted"`
}

// scrubResult summarizes one scrub sweep for /-/scrub and the logs.
type scrubResult struct {
	// Containers and Blocks count what the sweep walked.
	Containers int `json:"containers"`
	// Blocks is the number of blocks verified (tombstones included).
	Blocks int `json:"blocks"`
	// Errors counts this sweep's integrity findings.
	Errors int `json:"errors"`
	// Quarantined counts blocks newly quarantined on mounted columns.
	Quarantined int `json:"quarantined"`
	// Tombstones counts persisted tombstones seen — known degraded
	// state from earlier repairs, not new findings.
	Tombstones int `json:"tombstones"`
	// Healed counts containers salvage-repaired and swapped.
	Healed int `json:"healed"`
	// Unrepairable counts containers repair had to leave untouched.
	Unrepairable int `json:"unrepairable"`
	// TombstonedBlocks counts blocks the sweep's heals declared lost.
	TombstonedBlocks int `json:"tombstoned_blocks"`
	// QuarantineCleared counts ledger entries retired by the healed
	// generations' swap.
	QuarantineCleared int `json:"quarantine_cleared"`
	// Reloaded reports whether healed containers were re-mounted.
	Reloaded bool `json:"reloaded"`
	// Aborted reports a sweep cut short by server shutdown.
	Aborted bool `json:"aborted"`
}

// sweepCounters tallies one kind of sweep for /metrics.
type sweepCounters struct {
	started, aborted atomic.Int64
}

// compactOptions maps the serving config onto the compactor's knobs.
func (c Config) compactOptions() compact.Options {
	return compact.Options{
		MinGainBytes:    c.CompactMinGainBytes,
		MinGainFraction: c.CompactMinGainFraction,
		Parallelism:     c.Parallelism,
		MergeSmall:      c.CompactMerge,
	}
}

// scrubOptions maps the serving config onto the scrubber's knobs.
func (c Config) scrubOptions() scrub.Options {
	return scrub.Options{
		RateBytesPerSec: c.ScrubRateBytes,
		Retry:           c.retryPolicy(),
		WrapReader:      c.FaultInjection,
	}
}

// repairOptions maps the serving config onto salvage repair's knobs.
func (c Config) repairOptions() scrub.RepairOptions {
	return scrub.RepairOptions{
		Retry:      c.retryPolicy(),
		WrapReader: c.FaultInjection,
	}
}

// startMaintenance starts the configured background loops: one
// compaction sweep per CompactInterval, one scrub sweep per
// ScrubInterval, each logging only sweeps that found or changed
// something.
func (s *Server) startMaintenance() {
	if s.cfg.Compact {
		s.loop(s.cfg.CompactInterval, func() {
			if res := s.compactSweep(); res.Rewritten > 0 || res.Merged > 0 {
				log.Printf("lwcd: compaction sweep: %d rewritten, %d merged, %d skipped, %d failed, %d bytes reclaimed",
					res.Rewritten, res.Merged, res.Skipped, res.Failed, res.BytesReclaimed)
			}
		})
	}
	if s.cfg.Scrub {
		s.loop(s.cfg.ScrubInterval, func() {
			if res := s.scrubSweep(s.cfg.ScrubHeal); res.Errors > 0 || res.Healed > 0 || res.Unrepairable > 0 {
				log.Printf("lwcd: scrub sweep: %d container(s), %d error(s), %d quarantined, %d healed, %d unrepairable",
					res.Containers, res.Errors, res.Quarantined, res.Healed, res.Unrepairable)
			}
		})
	}
}

// loop runs sweep once per interval until Close.
func (s *Server) loop(interval time.Duration, sweep func()) {
	s.loops.Add(1)
	go func() {
		defer s.loops.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				sweep()
			}
		}
	}()
}

// runSweep runs one sweep's pass under the gate and counts it in ctr.
// pass calls idleYield before every container and returns false as
// soon as a yield reports shutdown; the sweep then counts as aborted,
// which runSweep reports. A sweep that finds the gate held is dropped
// without running or counting.
func (s *Server) runSweep(ctr *sweepCounters, pass func() bool) (aborted bool) {
	if !s.sweepMu.TryLock() {
		return false
	}
	defer s.sweepMu.Unlock()
	ctr.started.Add(1)
	if pass() {
		return false
	}
	ctr.aborted.Add(1)
	return true
}

// idleYield blocks until the admission gate has spare capacity —
// nobody queued and at least one free query slot — so background work
// only ever burns CPU the query path is not asking for. It returns
// false once the server is stopping.
func (s *Server) idleYield() bool {
	for {
		if s.gate.waiting() == 0 && s.gate.inFlight() < s.cfg.MaxConcurrent {
			return true
		}
		select {
		case <-s.stop:
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// reloadAfter re-mounts after a sweep (named by what) changed the
// directory, reporting whether the new generation serves.
func (s *Server) reloadAfter(what string) bool {
	if err := s.Reload(); err != nil {
		log.Printf("lwcd: reload after %s failed (still serving the previous set): %v", what, err)
		return false
	}
	return true
}

// compactSweep runs one compaction pass over the mounted directory:
// the merge pass when configured, then every container.
func (s *Server) compactSweep() (res sweepResult) {
	res.Aborted = s.runSweep(&s.compactSweeps, func() bool {
		if s.cfg.CompactMerge {
			if !s.idleYield() {
				return false
			}
			merged, err := s.compactor.MergeDir(s.cfg.Dir)
			if err != nil {
				log.Printf("lwcd: compaction merge pass: %v", err)
			}
			res.Merged += len(merged)
			for _, m := range merged {
				res.BytesReclaimed += m.Gain()
			}
		}
		paths, err := compact.ListContainers(s.cfg.Dir)
		if err != nil {
			log.Printf("lwcd: compaction sweep: %v", err)
			return true
		}
		for _, p := range paths {
			if !s.idleYield() {
				return false
			}
			r, err := s.compactor.CompactFile(p)
			if err != nil {
				// Environmental (a container deleted mid-sweep, a full
				// disk): log and move on — the next sweep retries.
				log.Printf("lwcd: compacting %s: %v", p, err)
				continue
			}
			switch r.Action {
			case compact.ActionRewritten:
				res.Rewritten++
				res.BytesReclaimed += r.Gain()
			case compact.ActionSkipped:
				res.Skipped++
			case compact.ActionFailed:
				res.Failed++
				log.Printf("lwcd: compacting %s: kept old generation: %v", p, r.Err)
			}
		}
		if res.Rewritten > 0 || res.Merged > 0 {
			res.Reloaded = s.reloadAfter("compaction")
		}
		return true
	})
	return res
}

// scrubTarget is one mounted container the sweep verifies: its path on
// disk and its mounted column handles (for quarantine propagation).
type scrubTarget struct {
	path string
	cols []storage.BlockedColumn
}

// scrubSweep fsck-walks every mounted container once, quarantining
// bad blocks on the mounted columns, and — when heal is set — salvage-
// repairing damaged containers and reloading so the healed generations
// serve.
func (s *Server) scrubSweep(heal bool) (res scrubResult) {
	res.Aborted = s.runSweep(&s.scrubSweeps, func() bool {
		// Snapshot the mounted set and hold a reference for the whole
		// sweep so the column handles stay valid under a concurrent
		// reload.
		ms := s.acquireMounts()
		defer ms.release()
		var targets []scrubTarget
		for _, name := range ms.names {
			mt := ms.tables[name]
			for ci, cf := range mt.containers {
				targets = append(targets, scrubTarget{
					path: filepath.Join(s.cfg.Dir, mt.files[ci]),
					cols: cf.Columns(),
				})
			}
		}

		clearedOnHeal := 0
		for _, tg := range targets {
			if !s.idleYield() {
				return false
			}
			rep, err := s.scrubber.ScrubFile(tg.path)
			if err != nil {
				// Environmental (a container deleted mid-sweep): log and
				// move on — the next sweep retries.
				log.Printf("lwcd: scrubbing %s: %v", tg.path, err)
				continue
			}
			res.Containers++
			res.Blocks += rep.Blocks
			res.Errors += len(rep.Issues)
			res.Tombstones += len(rep.Tombstones)
			for _, iss := range rep.Issues {
				if iss.Block < 0 {
					continue
				}
				if bc := findMountedColumn(tg.cols, iss.Column); bc != nil && bc.Col.Quarantine(iss.Block, iss.Err) {
					res.Quarantined++
					s.scrubQuarantined.Add(1)
				}
			}
			if !heal || len(rep.Issues) == 0 {
				continue
			}
			rr, err := scrub.RepairFile(tg.path, s.cfg.repairOptions())
			if err != nil {
				log.Printf("lwcd: repairing %s: %v", tg.path, err)
				continue
			}
			switch rr.Action {
			case scrub.ActionRepaired:
				res.Healed++
				res.TombstonedBlocks += rr.Tombstoned
				s.scrubHealed.Add(1)
				for _, bc := range tg.cols {
					clearedOnHeal += bc.Col.QuarantineCount()
				}
				log.Printf("lwcd: healed %s: %d preserved, %d reread, %d stats fixed, %d checksums fixed, %d tombstoned",
					tg.path, rr.Preserved, rr.Reread, rr.StatsFixed, rr.ChecksumsFixed, rr.Tombstoned)
			case scrub.ActionUnrepairable:
				res.Unrepairable++
				s.scrubUnrepairable.Add(1)
				log.Printf("lwcd: %s is unrepairable, left untouched: %s", tg.path, rr.Err)
			}
		}
		s.scrubber.MarkSweepDone()

		// The healed generations' swap retires the old mount set, its
		// quarantine ledgers with it; the healed files mount clean.
		if res.Healed > 0 && s.reloadAfter("heal") {
			res.Reloaded = true
			res.QuarantineCleared = clearedOnHeal
		}
		return true
	})
	return res
}

// findMountedColumn resolves a verify finding's column name to the
// mounted handle. A single-column container matches unconditionally —
// under the <table>.<column>.lwc convention the served name comes from
// the filename and the container's internal name is an encode-time
// artifact.
func findMountedColumn(cols []storage.BlockedColumn, name string) *storage.BlockedColumn {
	if len(cols) == 1 {
		return &cols[0]
	}
	for i := range cols {
		if cols[i].Name == name {
			return &cols[i]
		}
	}
	return nil
}
