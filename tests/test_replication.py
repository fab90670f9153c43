"""Tests for the replicated controller core (:mod:`repro.runtime.replication`).

Everything here runs against the in-memory :class:`ReplicaGroup`
simulator: a :class:`ManualClock`, FIFO message queues and explicit
crash/restart/partition verbs, so each scenario is byte-deterministic
in its seed.  The suite covers the satellite requirements directly:

* election safety — term monotonicity and at most one leader per term,
  checked across crash, restart and partition scripts;
* lease behaviour — a leader that cannot prove quorum support within
  the lease steps down *before* the other side can elect, including
  under injected clock skew against a standalone :class:`Replica`;
* log replication — majority-ack commit, exactly-once client retries
  (cid dedup), committed entries surviving failover;
* guard semantics — a deposed leader's in-flight leader-only action is
  rejected by its own core's term check (:class:`ReplicaGuard`, the
  guard the replica processes of :mod:`repro.runtime.replicated` run);
* a hypothesis property: any seeded crash/restart sequence converges
  back to exactly one leader with identical committed prefixes.
"""

import pytest

from repro.runtime.replication import (
    ManualClock,
    NotLeaderError,
    Replica,
    ReplicaGroup,
    ReplicaGuard,
    Role,
    StaleTermError,
    StaticGuard,
)
from tests.conftest import depose_in_place

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships in the image
    HAVE_HYPOTHESIS = False


def _leaders_everywhere(group):
    """Leaders among *all* non-crashed replicas (partitioned included).

    ``group.leaders()`` only reports reachable replicas; split-brain
    would hide on the wrong side of a partition, so safety checks must
    look at every surviving state machine.
    """
    return [
        i
        for i in range(group.num)
        if i not in group.crashed
        and group.replicas[i].role is Role.LEADER
    ]


def _observe(group, seen):
    """Record (term -> leaders) and per-replica terms for later checks."""
    for i in _leaders_everywhere(group):
        seen.setdefault(group.replicas[i].term, set()).add(i)


# ----------------------------------------------------------------------
# Elections: determinism, term monotonicity, single leader per term
# ----------------------------------------------------------------------


class TestElection:
    def test_first_election_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            group = ReplicaGroup(num=3, seed=42)
            leader = group.elect()
            outcomes.append((leader, group.replicas[leader].term,
                             group.clock.now()))
        assert outcomes[0] == outcomes[1]

    def test_different_seeds_are_independent_runs(self):
        # Not asserting the *leaders* differ (they may collide); the
        # drawn timeout schedule must differ, so the election instants do.
        t_a = ReplicaGroup(num=3, seed=1)
        t_b = ReplicaGroup(num=3, seed=2)
        t_a.elect()
        t_b.elect()
        assert (
            t_a.clock.now() != t_b.clock.now()
            or t_a.leader() != t_b.leader()
        )

    def test_apply_backlog_defers_campaigning(self):
        # A replica still draining committed-but-unapplied entries must
        # not campaign (a backlogged winner cannot execute anything and
        # its term bumps reset every other candidate's clock) — but the
        # moment the backlog clears, the deferred election fires.
        clock = ManualClock()
        replica = Replica(0, [1, 2], clock, seed=31)
        replica.apply_backlog = True
        for _ in range(40):
            clock.advance(1.0)
            assert replica.tick() == []
        assert replica.role is Role.FOLLOWER
        replica.apply_backlog = False
        clock.advance(replica.election_timeout[1])
        messages = replica.tick()
        assert replica.role is Role.CANDIDATE
        assert {m.dest for m in messages} == {1, 2}

    def test_staggered_first_election_delay_is_honoured(self):
        clock = ManualClock()
        replica = Replica(0, [1, 2], clock, seed=31,
                          first_election_delay=0.4)
        clock.advance(0.3)
        assert replica.tick() == []
        assert replica.role is Role.FOLLOWER
        clock.advance(0.2)
        replica.tick()
        assert replica.role is Role.CANDIDATE

    def test_term_never_decreases(self):
        group = ReplicaGroup(num=3, seed=7)
        floor = {i: 0 for i in range(3)}
        group_floor = 0

        def check():
            nonlocal group_floor
            # Per incarnation: a replica's term only ever climbs.
            for i in group.live():
                term = group.replicas[i].term
                assert term >= floor[i]
                floor[i] = term
            # And the cluster-wide term is monotonic outright.
            term = group.status()["term"]
            assert term >= group_floor
            group_floor = term

        group.elect()
        check()
        for _ in range(3):
            group.depose()
            check()
        victim = group.leader()
        group.crash(victim)
        group.elect()
        group.restart(victim)
        # A restarted incarnation starts over (volatile state is gone);
        # its floor resets, but the *group* term floor still applies.
        floor[victim] = 0
        group.run_until(lambda: victim in group.live())
        check()
        # Once it hears the leader it re-adopts a term at or above the
        # one its predecessor incarnation held.
        group.run_until(
            lambda: group.replicas[victim].leader_id == group.leader()
        )
        check()

    def test_single_leader_per_term_across_event_script(self):
        group = ReplicaGroup(num=5, seed=13)
        seen = {}
        group.elect()
        _observe(group, seen)
        for step in range(12):
            actor = step % 5
            if actor in group.crashed:
                group.restart(actor)
            elif step % 3 == 0:
                group.crash(actor)
            elif step % 3 == 1:
                group.partition(actor)
            else:
                group.heal(actor)
            group.advance(group.election_timeout[1])
            _observe(group, seen)
        for node in list(group.crashed):
            group.restart(node)
        for node in list(group.partitioned):
            group.heal(node)
        group.elect()
        _observe(group, seen)
        assert seen, "script never produced a leader"
        for term, leaders in seen.items():
            assert len(leaders) == 1, (
                f"term {term} had multiple leaders: {sorted(leaders)}"
            )

    def test_reelection_excludes_crashed_leader(self):
        group = ReplicaGroup(num=3, seed=3)
        info = group.depose()
        assert info["new_leader"] != info["old_leader"]
        assert info["new_term"] > info["old_term"]
        # The restarted old leader rejoined as a follower of the new one.
        assert group.replicas[info["old_leader"]].leader_id == info["new_leader"]

    def test_minority_partition_cannot_elect(self):
        group = ReplicaGroup(num=3, seed=9)
        leader = group.elect()
        lone = next(i for i in range(3) if i != leader)
        group.partition(lone)
        # Commit real entries the isolated replica never sees: its log
        # is now genuinely stale, not merely behind on heartbeats.
        group.submit("drain", {"node": 1})
        group.submit("join", {"node": 1})
        group.advance(group.election_timeout[1] * 4)
        # The isolated replica may campaign forever; without a quorum it
        # never wins, and the healthy majority keeps its leader.
        assert group.replicas[lone].role is not Role.LEADER
        assert group.leader() == leader
        # Healing lets the rogue's inflated term force a re-election,
        # but its stale log can never win: only a replica holding the
        # full committed prefix may end up leading.
        group.heal(lone)
        group.run_until(
            lambda: group.leader() is not None
            and group.replicas[lone].role is not Role.LEADER
            and group.replicas[lone].leader_id == group.leader(),
            budget=120.0,
        )
        assert len(_leaders_everywhere(group)) == 1
        assert group.logs_identical()


# ----------------------------------------------------------------------
# Leases: step-down before the other side can elect; clock skew
# ----------------------------------------------------------------------


class TestLease:
    def test_isolated_leader_steps_down_within_lease(self):
        group = ReplicaGroup(num=3, seed=21)
        leader = group.elect()
        group.partition(leader)
        # Walk time forward in small steps: at no instant may two
        # replicas both claim leadership (lease < min election timeout).
        for _ in range(200):
            group.advance(group.heartbeat_interval / 2)
            assert len(_leaders_everywhere(group)) <= 1
            if group.leader() not in (None, leader):
                break
        successor = group.leader()
        assert successor is not None and successor != leader
        assert group.replicas[leader].role is not Role.LEADER
        group.heal(leader)
        group.run_until(lambda: group.replicas[leader].leader_id == successor)
        assert group.logs_identical()

    def test_lease_expiry_under_injected_clock_skew(self):
        """A leader whose clock runs fast drops its lease unilaterally.

        The replica under test is driven by its own ManualClock; vote
        replies make it leader, then the clock jumps (skew) without any
        append acks — the sorted-ack lease check must demote it even
        though no peer told it anything.
        """
        clock = ManualClock()
        replica = Replica(
            0, [1, 2], clock, seed=5,
            election_timeout=(1.0, 2.0), heartbeat_interval=0.25,
            lease_duration=0.9,
        )
        clock.advance(2.5)  # past any drawn election deadline
        outbound = replica.tick()
        assert replica.role is Role.CANDIDATE
        assert {m.dest for m in outbound} == {1, 2}
        replica.handle(
            "vote_reply", {"term": replica.term, "voter": 1, "granted": True}
        )
        assert replica.role is Role.LEADER
        # Fresh leadership: acks were stamped "now", lease is healthy.
        assert replica.tick() == [] or replica.role is Role.LEADER
        # Inject skew: this replica's clock leaps past the lease while
        # the followers (by its own accounting) stay silent.
        clock.advance(replica.lease_duration + 0.01)
        replica.tick()
        assert replica.role is Role.FOLLOWER
        assert replica.leader_id is None

    def test_recent_follower_refuses_votes_inside_lease(self):
        group = ReplicaGroup(num=3, seed=2)
        leader = group.elect()
        follower = next(i for i in range(3) if i != leader)
        rogue = next(i for i in range(3) if i not in (leader, follower))
        # The follower heard a heartbeat within the lease: a rogue
        # campaign at a higher term is ignored outright.
        replies = group.replicas[follower].handle("vote", {
            "term": group.replicas[rogue].term + 10,
            "candidate": rogue,
            "last_term": 99,
            "last_index": 99,
        })
        assert len(replies) == 1
        assert replies[0].payload["granted"] is False
        # And the follower did not even adopt the inflated term.
        assert group.replicas[follower].leader_id == leader


# ----------------------------------------------------------------------
# Log replication: majority commit, dedup, failover durability
# ----------------------------------------------------------------------


class TestReplicationLog:
    def test_submit_commits_everywhere(self):
        group = ReplicaGroup(num=3, seed=11)
        group.elect()
        meta = group.submit("drain", {"node": 2})
        group.run_until(lambda: all(
            group.replicas[i].commit_index >= meta["index"]
            for i in group.live()
        ))
        for i in group.live():
            assert meta["cid"] in group.replicas[i].committed_cids()
        assert group.logs_identical()

    def test_repeated_cid_is_exactly_once(self):
        group = ReplicaGroup(num=3, seed=11)
        leader = group.elect()
        first = group.submit("join", {"node": 1}, cid="retry-me")
        again = group.submit("join", {"node": 1}, cid="retry-me")
        assert again["index"] == first["index"]
        cids = group.replicas[leader].committed_cids()
        assert cids.count("retry-me") == 1

    def test_follower_submit_raises_not_leader(self):
        group = ReplicaGroup(num=3, seed=11)
        leader = group.elect()
        follower = next(i for i in range(3) if i != leader)
        with pytest.raises(NotLeaderError) as err:
            group.replicas[follower].submit("c9", "drain", {})
        assert err.value.leader == leader

    def test_committed_verbs_survive_failover(self):
        group = ReplicaGroup(num=3, seed=17)
        group.elect()
        cids = [group.submit("storm", {"round": n})["cid"] for n in range(5)]
        info = group.depose()
        survivor = group.replicas[info["new_leader"]]
        for cid in cids:
            assert cid in survivor.committed_cids()
        group.run_until(group.logs_identical)
        # The restarted old leader replayed the same committed prefix.
        assert set(cids) <= set(
            group.replicas[info["old_leader"]].committed_cids()
        )

    def test_divergent_uncommitted_tail_is_truncated(self):
        group = ReplicaGroup(num=3, seed=29)
        leader = group.elect()
        # The leader appends locally but is cut off before replicating:
        # that entry must never commit, and the successor overwrites it.
        group.partition(leader)
        index, _ = group.replicas[leader].submit("c-lost", "drain", {})
        group.advance(group.election_timeout[1] * 3)
        successor = group.leader()
        assert successor is not None and successor != leader
        group.submit("join", {"node": 0}, cid="c-kept")
        group.heal(leader)
        group.run_until(
            lambda: group.replicas[leader].leader_id == successor
            and group.replicas[leader].commit_index
            >= group.replicas[successor].commit_index
        )
        old_log = group.replicas[leader]
        assert "c-kept" in old_log.committed_cids()
        assert "c-lost" not in old_log.committed_cids()
        assert old_log.entry(index).cid != "c-lost"
        assert group.logs_identical()

    def test_majority_restart_leaves_survivor_coherent(self):
        # Logs are memory-only: when a majority restarts empty, it can
        # elect among itself and overwrite entries the old quorum had
        # committed.  That data loss is the documented price of having
        # no persistence — but the surviving replica must reconcile
        # cleanly (commit_index clamped with its truncated log, cid
        # index purged) instead of wedging past its own log.
        group = ReplicaGroup(num=3, seed=178)
        leader = group.elect()
        group.submit("drain", {"node": 1}, cid="c-doomed-1")
        group.submit("join", {"node": 1}, cid="c-doomed-2")
        others = [r for r in range(3) if r != leader]
        for rid in others:
            group.crash(rid)
        for rid in others:
            group.restart(rid)
        group.run_until(
            lambda: len(_leaders_everywhere(group)) == 1
            and len({
                group.replicas[r].commit_index for r in range(3)
            }) == 1,
            budget=300.0,
        )
        survivor = group.replicas[leader]
        assert survivor.commit_index <= survivor.last_index
        assert group.logs_identical()
        committed = [
            set(group.replicas[r].committed_cids()) for r in range(3)
        ]
        assert all(c == committed[0] for c in committed[1:])
        # The overwritten cids must be resubmittable, not silently
        # deduplicated against truncated entries.
        group.submit("drain", {"node": 1}, cid="c-doomed-1")
        assert "c-doomed-1" in group.replicas[group.leader()].committed_cids()


# ----------------------------------------------------------------------
# Leadership guards (the fence/term-check seam used by the controller)
# ----------------------------------------------------------------------


class TestGuards:
    def test_static_guard_is_always_term_zero(self):
        guard = StaticGuard()
        term = guard.acquire("fence")
        assert term == 0
        guard.validate(term, "fence")
        with pytest.raises(StaleTermError):
            guard.validate(1, "fence")

    def test_replica_guard_requires_a_leader(self):
        group = ReplicaGroup(num=3, seed=4)  # nobody elected yet
        for core in group.replicas.values():
            with pytest.raises(StaleTermError):
                ReplicaGuard(core).acquire("fence")

    def test_replica_guard_pinned_to_follower_refuses(self):
        group = ReplicaGroup(num=3, seed=4)
        leader = group.elect()
        follower = next(i for i in range(3) if i != leader)
        with pytest.raises(StaleTermError):
            ReplicaGuard(group.replicas[follower]).acquire("fence")
        assert ReplicaGuard(group.replicas[leader]).acquire("fence") >= 1

    def test_deposed_leaders_in_flight_action_is_rejected(self):
        group = ReplicaGroup(num=3, seed=4)
        leader = group.elect()
        guard = ReplicaGuard(group.replicas[leader])
        term = guard.acquire("fence")
        successor = depose_in_place(group)
        with pytest.raises(StaleTermError, match="lost term"):
            guard.validate(term, "fence")
        with pytest.raises(StaleTermError):
            guard.acquire("fence")
        # A fresh acquire under the new leader validates cleanly.
        guard = ReplicaGuard(group.replicas[successor])
        term2 = guard.acquire("fence")
        assert term2 > term
        guard.validate(term2, "fence")

    def test_replica_guard_admits_only_the_current_term(self):
        group = ReplicaGroup(num=3, seed=4)
        leader = group.elect()
        guard = ReplicaGuard(group.replicas[leader])
        term = guard.acquire("fence")
        guard.validate(term, "fence")
        with pytest.raises(StaleTermError, match="lost term"):
            guard.validate(term - 1, "fence")
        # Deposed, the core has seen the successor's higher term, yet
        # that term is not its own to act under.
        depose_in_place(group)
        core = group.replicas[leader]
        assert core.term > term
        with pytest.raises(StaleTermError, match="lost term"):
            guard.validate(core.term, "fence")


# ----------------------------------------------------------------------
# Property: seeded crash/restart chaos converges to one leader
# ----------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestConvergenceProperty:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        script=st.lists(
            st.tuples(
                st.sampled_from(["crash", "restart", "advance"]),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=1, max_size=10,
        ),
    )
    def test_any_crash_restart_sequence_converges(self, seed, script):
        group = ReplicaGroup(num=3, seed=seed)
        group.elect()
        submitted = 0
        for verb, node in script:
            if verb == "crash" and node not in group.crashed:
                group.crash(node)
            elif verb == "restart" and node in group.crashed:
                group.restart(node)
            elif verb == "advance":
                group.advance(group.election_timeout[1] / 2)
            if len(group.live()) >= group.replicas[0].quorum:
                if group.leader() is not None:
                    group.submit("storm", {"n": submitted})
                    submitted += 1
        for node in list(group.crashed):
            group.restart(node)
        group.run_until(
            lambda: len(_leaders_everywhere(group)) == 1
            and all(
                group.replicas[i].leader_id == group.leader()
                for i in range(group.num)
            ),
            budget=300.0,
        )
        assert len(_leaders_everywhere(group)) == 1
        group.run_until(
            lambda: len({
                group.replicas[i].commit_index for i in range(group.num)
            }) == 1,
            budget=300.0,
        )
        assert group.logs_identical()
        # Every acked submit is in every replica's committed prefix.
        committed = [
            set(group.replicas[i].committed_cids()) for i in range(group.num)
        ]
        assert all(c == committed[0] for c in committed[1:])
