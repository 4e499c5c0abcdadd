package server

import (
	"fmt"
)

// Singleflight dedup of identical in-flight jobs.
//
// Without it, two concurrent submissions of the same spec both miss
// the result cache (the first has not completed yet) and both burn a
// full search — wasted work on one node, and a thundering herd on a
// fleet where a popular spec lands on one shard. With it, the first
// cache-missing submission of a canonical key becomes the *leader* of
// a flight and is enqueued normally; every identical submission that
// arrives while the flight is open becomes a *follower*: it is
// registered (it has its own id, its own wire view, its own DELETE)
// but never enters the queue. When the leader reaches a terminal
// state the flight resolves:
//
//   - leader completed → every still-live follower adopts the
//     leader's result, marked "deduped" on the wire;
//   - leader cancelled or failed → the leader's outcome must NOT
//     satisfy the followers (a cancelled run's partial counters are
//     not reproducible, and the followers were not the ones
//     cancelled), so the first still-live follower is promoted to
//     leader of a fresh flight and re-dispatched; the rest ride
//     along.
//
// Flights are keyed by the canonical cache key — the same key the
// result cache uses — so a flight join has exactly the semantics of a
// cache hit that has not materialized yet. The flight table is
// guarded by Server.mu; resolution runs on the goroutine that
// finished the leader (a scheduler worker, or the HTTP handler for a
// queued-job cancellation) and takes the lock only to swap the table.

// flight is one open singleflight entry: a leader owning the search
// and the followers awaiting its outcome.
type flight struct {
	leader    *job
	followers []*job
}

// joinOrLeadLocked either attaches j to an open flight for its key
// (returning true: j is a follower and must not be enqueued) or opens
// a new flight with j as leader (returning false: enqueue j).
// Requires s.mu.
func (s *Server) joinOrLeadLocked(j *job) (follower bool) {
	if fl, ok := s.flights[j.key]; ok {
		fl.followers = append(fl.followers, j)
		return true
	}
	s.flights[j.key] = &flight{leader: j}
	return false
}

// inFlight reports whether a flight is open for the canonical key.
func (s *Server) inFlight(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.flights[key]
	return ok
}

// jobTerminal is every job's onTerminal hook: when a flight leader
// reaches a terminal state, resolve its flight. Follower and
// cache-born jobs have no flight entry and return immediately.
func (s *Server) jobTerminal(j *job) {
	s.mu.Lock()
	fl, ok := s.flights[j.key]
	if !ok || fl.leader != j {
		s.mu.Unlock()
		return
	}
	delete(s.flights, j.key)
	followers := fl.followers
	s.mu.Unlock()
	if len(followers) == 0 {
		return
	}

	j.mu.Lock()
	status, res, errMsg := j.status, j.result, j.errMsg
	j.mu.Unlock()

	if status == StatusCompleted {
		adopted := 0
		for _, f := range followers {
			if f.adopt(status, res, errMsg) {
				adopted++
			}
		}
		s.obs.Trace().Emit("singleflight_resolve", map[string]any{
			"leader": j.id, "followers": adopted,
		})
		return
	}
	s.promote(j, status, followers)
}

// promote re-dispatches a flight whose leader ended without a usable
// result: the first follower that is still live becomes the new
// leader and is enqueued, with the remaining followers carried into
// the new flight. If the server is draining the followers finish
// cancelled (matching what Shutdown does to queued jobs); if the
// queue is full they fail with an explanatory error rather than
// silently hanging.
func (s *Server) promote(leader *job, status Status, followers []*job) {
	var next *job
	var rest []*job
	for i, f := range followers {
		f.mu.Lock()
		terminal := f.status.Terminal()
		f.mu.Unlock()
		if !terminal {
			next, rest = f, followers[i+1:]
			break
		}
	}
	if next == nil {
		return
	}

	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		next.finish(StatusCancelled, nil, "")
		for _, f := range rest {
			f.finish(StatusCancelled, nil, "")
		}
		return
	}
	select {
	case s.queue <- next:
		s.flights[next.key] = &flight{leader: next, followers: rest}
		s.mu.Unlock()
		s.metrics.dedupPromotions.Inc()
		s.obs.Trace().Emit("singleflight_promote", map[string]any{
			"id": next.id, "was_leader": leader.id, "leader_status": string(status),
		})
	default:
		s.mu.Unlock()
		msg := fmt.Sprintf("singleflight leader %s finished %s and the queue is full (depth %d)", leader.id, status, s.cfg.QueueDepth)
		next.finish(StatusFailed, nil, msg)
		for _, f := range rest {
			f.finish(StatusFailed, nil, msg)
		}
	}
}
