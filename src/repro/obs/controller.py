"""The adaptive compaction controller: signals in, policy knobs out.

Closes the observability loop.  Each *tick* the controller classifies the
workload from the derived signals (:mod:`repro.obs.signals`) and maps it
onto the compaction design space the composable pickers expose
(:mod:`repro.lsm.compaction`):

- sustained **write pressure** (stalls, slowdowns, L0 debt) with a quiet
  read side -> *universal* (tiering: minimum write amplification);
- a **scan-heavy** phase (or point reads probing many runs per get) ->
  *leveled* (minimum read amplification where it actually matters: range
  scans touch every sorted run, point lookups early-exit);
- **writes plus scan pressure** -> *lazy-leveled*, the Dostoevsky
  middle ground; writes plus skewed point reads stay tiered;
- no clear pressure -> keep whatever is running (changing policy has a
  cost; never pay it for an idle tree).

FIFO is never chosen: it deletes data, and no latency signal justifies
that.  A DB opened with FIFO therefore never gets a controller.

The second knob is **offload**: when a disaggregated compaction service
is attached, merges should cross the network only while the link is the
cheaper resource -- local encryption cost per compaction byte above the
link's transfer cost per byte (with a hysteresis margin so a borderline
workload does not flap).

Stability machinery, because a controller that thrashes is worse than no
controller: a minimum interval between decisions, N consecutive ticks
agreeing before a flip, a dwell time after each flip, a hard cap on
flips per minute, and a total freeze while the engine is not healthy
(degraded states have their own recovery story; reshaping the tree
mid-outage only adds noise).

The class is engine-agnostic and purely functional over its inputs --
``decide(signals, health, now)`` -- so tests drive it with a
:class:`~repro.util.clock.VirtualClock` and synthetic signal dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.lsm.compaction import make_picker
from repro.lsm.options import (
    COMPACTION_LAZY_LEVELED,
    COMPACTION_LEVELED,
    COMPACTION_UNIVERSAL,
    Options,
)
from repro.obs.trace import TRACER
from repro.util.syncpoint import SYNC

SP_CTRL_BEFORE_DECIDE = SYNC.declare(
    "controller:before_decide", "signals sampled, adaptive decision pending"
)
SP_CTRL_AFTER_POLICY_CHANGE = SYNC.declare(
    "controller:after_policy_change", "new picker installed, change not announced"
)

#: Reads between two read-path checks of the control loop.
_READS_PER_TICK = 64

#: Policies the controller may select (never FIFO).
ADAPTIVE_POLICIES = (
    COMPACTION_LEVELED,
    COMPACTION_LAZY_LEVELED,
    COMPACTION_UNIVERSAL,
)


@dataclass
class ControllerConfig:
    """Thresholds and stability knobs (defaults sized for the simulated
    deployments; benchmarks and tests override freely)."""

    # -- cadence / stability ------------------------------------------------
    tick_interval_s: float = 2.0     # min seconds between decisions
    confirm_ticks: int = 2           # consecutive agreeing ticks before a flip
    dwell_s: float = 10.0            # min seconds between policy flips
    max_flips_per_min: int = 2       # hard cap on policy-change rate
    # -- workload classification thresholds ---------------------------------
    stall_threshold_s: float = 0.1   # windowed stall seconds = write pressure
    write_rate_floor: float = 64 * 1024.0  # bytes/s for an "active" write side
    read_rate_floor: float = 50.0    # get+scan ops/s for an "active" read side
    scan_rate_floor: float = 10.0    # scans/s that count as scan pressure
    read_amp_threshold: float = 4.0  # probes/get that count as read pressure
    # -- offload ------------------------------------------------------------
    offload_margin: float = 1.5      # local cost must exceed link by this


@dataclass
class Decision:
    """One tick's verdict (also what OP_STATS exports, dict-ified)."""

    policy: str
    offload: bool
    reason: str
    policy_changed: bool = False
    offload_changed: bool = False
    frozen: bool = False

    def as_dict(self) -> dict:
        return {
            "policy": self.policy,
            "offload": self.offload,
            "reason": self.reason,
            "frozen": self.frozen,
        }


def merge_controller_states(states: list[dict]) -> dict:
    """Cross-shard controller summary for the merged OP_STATS snapshot:
    per-policy shard counts plus summed tick/flip totals."""
    states = [state for state in states if state]
    if not states:
        return {}
    policies: dict[str, int] = {}
    out = {
        "shards": len(states),
        "policies": policies,
        "offload_shards": 0,
        "ticks": 0,
        "policy_changes": 0,
        "offload_changes": 0,
        "frozen_ticks": 0,
    }
    for state in states:
        policy = state.get("policy", "?")
        policies[policy] = policies.get(policy, 0) + 1
        out["offload_shards"] += bool(state.get("offload"))
        for key in ("ticks", "policy_changes", "offload_changes", "frozen_ticks"):
            out[key] += state.get(key, 0)
    return out


@dataclass
class _State:
    pending_policy: str = ""
    pending_count: int = 0
    last_tick: float = -1e18
    last_flip: float = -1e18
    flip_times: list = field(default_factory=list)


class AdaptiveController:
    """Hysteretic signal->policy mapping; one instance per DB."""

    def __init__(
        self,
        initial_policy: str,
        offload_available: bool = False,
        link_s_per_byte: float = 0.0,
        config: ControllerConfig | None = None,
    ):
        if initial_policy not in ADAPTIVE_POLICIES:
            raise ValueError(
                f"adaptive controller cannot manage {initial_policy!r}"
            )
        self.config = config or ControllerConfig()
        self.policy = initial_policy
        self.offload_available = offload_available
        #: Seconds the link needs to move one byte (0 = unknown/free).
        self.link_s_per_byte = link_s_per_byte
        # Offload starts on when available: matches the static engine's
        # behaviour until the signals prove the link is the bottleneck.
        self.offload = offload_available
        self.ticks = 0
        self.policy_changes = 0
        self.offload_changes = 0
        self.frozen_ticks = 0
        self.last_reason = "init"
        self._state = _State()

    # ------------------------------------------------------------------

    def due(self, now: float) -> bool:
        """Whether enough time has passed for another decision."""
        return now - self._state.last_tick >= self.config.tick_interval_s

    def decide(self, signals: dict, health: str, now: float) -> Decision:
        """One control tick.  Callers gate on :meth:`due`."""
        state = self._state
        state.last_tick = now
        self.ticks += 1

        if health != "healthy":
            # Freeze: a degraded engine is busy recovering; do not also
            # reshape its tree.  Pending evidence resets so the flip
            # restarts from scratch after the engine heals.
            state.pending_policy = ""
            state.pending_count = 0
            self.frozen_ticks += 1
            self.last_reason = f"frozen:{health}"
            return Decision(
                self.policy, self.offload, self.last_reason, frozen=True
            )

        desired, reason = self._desired_policy(signals)
        policy_changed = self._maybe_flip(desired, reason, now)
        offload_changed = self._decide_offload(signals)
        self.last_reason = reason
        return Decision(
            self.policy,
            self.offload,
            reason,
            policy_changed=policy_changed,
            offload_changed=offload_changed,
        )

    def stats_dict(self) -> dict:
        """Controller state for the OP_STATS ``obs`` section."""
        return {
            "policy": self.policy,
            "offload": self.offload,
            "reason": self.last_reason,
            "ticks": self.ticks,
            "policy_changes": self.policy_changes,
            "offload_changes": self.offload_changes,
            "frozen_ticks": self.frozen_ticks,
        }

    # ------------------------------------------------------------------

    def _desired_policy(self, s: dict) -> tuple[str, str]:
        cfg = self.config
        write_pressure = (
            s.get("stall_seconds", 0.0) > cfg.stall_threshold_s
            or s.get("slowdown_writes", 0) > 0
            or (s.get("level_debt_bytes") or [0])[0] > 0
        )
        write_active = (
            write_pressure or s.get("write_bytes_per_s", 0.0) >= cfg.write_rate_floor
        )
        read_ops = s.get("get_ops_per_s", 0.0) + s.get("scan_ops_per_s", 0.0)
        read_active = read_ops >= cfg.read_rate_floor or (
            read_ops > 0 and s.get("read_amp", 0.0) >= cfg.read_amp_threshold
        )
        # Only *scan pressure* justifies paying for a leveled tree: a
        # range scan opens an iterator on every sorted run with no early
        # exit, while a point lookup walks runs newest-first and usually
        # stops at the first hit -- skewed get traffic barely notices
        # tiering.  High per-get probe counts (read_amp) are the
        # point-lookup exception: mostly-miss traffic pays every run too.
        scan_pressure = s.get("scan_ops_per_s", 0.0) >= cfg.scan_rate_floor or (
            read_ops > 0 and s.get("read_amp", 0.0) >= cfg.read_amp_threshold
        )
        if write_active and read_active:
            if scan_pressure:
                return COMPACTION_LAZY_LEVELED, "mixed"
            return COMPACTION_UNIVERSAL, "mixed:point-reads"
        if write_pressure:
            return COMPACTION_UNIVERSAL, "write-pressure"
        if write_active:
            return COMPACTION_UNIVERSAL, "write-heavy"
        if read_active:
            if scan_pressure:
                return COMPACTION_LEVELED, "read-heavy"
            return self.policy, "read-heavy:point"
        return self.policy, "idle"

    def _maybe_flip(self, desired: str, reason: str, now: float) -> bool:
        state = self._state
        if desired == self.policy:
            state.pending_policy = ""
            state.pending_count = 0
            return False
        if desired != state.pending_policy:
            state.pending_policy = desired
            state.pending_count = 1
        else:
            state.pending_count += 1
        cfg = self.config
        if state.pending_count < cfg.confirm_ticks:
            return False
        if now - state.last_flip < cfg.dwell_s:
            return False
        state.flip_times = [t for t in state.flip_times if now - t < 60.0]
        if len(state.flip_times) >= cfg.max_flips_per_min:
            return False
        self.policy = desired
        self.policy_changes += 1
        state.last_flip = now
        state.flip_times.append(now)
        state.pending_policy = ""
        state.pending_count = 0
        return True

    def _decide_offload(self, s: dict) -> bool:
        """Offload only while the link is the cheaper resource.

        Compares local encryption seconds per compaction byte (the CPU the
        paper's Section 6 trades against the network) with the link's
        seconds per byte.  The margin on both edges makes a borderline
        workload stick with its current routing.
        """
        if not self.offload_available or self.link_s_per_byte <= 0:
            return False
        local = s.get("encrypt_s_per_compaction_byte", 0.0)
        if local <= 0:
            return False  # no compaction evidence yet: keep routing as-is
        margin = self.config.offload_margin
        want = self.offload
        if local > self.link_s_per_byte * margin:
            want = True
        elif local < self.link_s_per_byte / margin:
            want = False
        if want != self.offload:
            self.offload = want
            self.offload_changes += 1
            return True
        return False


def _controller_for(options: Options) -> AdaptiveController | None:
    """The adaptive controller when ``Options.adaptive_compaction`` asks for
    one and the configured policy is one it may manage."""
    if (
        not options.adaptive_compaction
        or options.compaction_style not in ADAPTIVE_POLICIES
    ):
        return None  # FIFO: the controller refuses lossy policies
    service = options.compaction_service
    link_s_per_byte = 0.0
    link = getattr(service, "dispatch_link", None)
    if link is not None:
        bandwidth = link.config.bandwidth_bytes_per_s
        if bandwidth > 0:
            link_s_per_byte = 1.0 / bandwidth
    return AdaptiveController(
        options.compaction_style,
        offload_available=service is not None,
        link_s_per_byte=link_s_per_byte,
        config=options.adaptive_config,
    )


class PolicyInForce:
    """The compaction policy one DB runs under right now.

    The DB asks it for two things -- ``picker`` (which merge is due) and
    ``offload`` (whether merges go to the attached compaction service) --
    and calls :meth:`tick` where the control loop may look: at the end of
    a flush or compaction (inside their trace spans, so a policy change
    parents naturally) and on the read path.  With the adaptive knob off
    the pair is constant and a tick is one attribute test; with it on, a
    due tick samples the signals, lets the :class:`AdaptiveController`
    decide, installs what changed and tells the DB through ``changed``
    (the new policy may see work the old one did not).
    """

    def __init__(self, db, changed: Callable[[], None]):
        options = db.options
        self._db = db
        self._changed = changed
        self.controller = _controller_for(options)
        self.style = options.compaction_style
        self.picker = make_picker(options)
        # With a compaction service attached offload is on (the static
        # engine's behaviour); only the controller ever turns it off.
        self.offload = options.compaction_service is not None
        self._reads = 0

    def tick(self, origin: str) -> None:
        """One opportunistic control-loop iteration; cheap when not due."""
        controller = self.controller
        if controller is None:
            return
        if origin == "read":
            # Read-mostly phases produce no flushes to tick the loop, so
            # the read path checks in occasionally.  The counter is racy
            # on purpose: a lost increment only delays a check.
            self._reads += 1
            if self._reads < _READS_PER_TICK:
                return
            self._reads = 0
        db = self._db
        now = db.clock.now()
        if not controller.due(now):
            return
        SYNC.process(SP_CTRL_BEFORE_DECIDE)
        signals = db.signals.sample()
        decision = controller.decide(signals, db.health()["state"], now)
        db.stats.counter("controller.ticks").add(1)
        if decision.frozen:
            db.stats.counter("controller.frozen_ticks").add(1)
            return
        if decision.policy_changed or decision.offload_changed:
            with TRACER.span(
                "compaction.policy_change",
                attributes={
                    "origin": origin,
                    "policy": decision.policy,
                    "offload": decision.offload,
                    "reason": decision.reason,
                },
            ):
                if decision.policy != self.style:
                    self.style = decision.policy
                    self.picker = make_picker(db.options, decision.policy)
                    db.stats.counter("controller.policy_changes").add(1)
                if decision.offload != self.offload:
                    self.offload = decision.offload
                    db.stats.counter("controller.offload_changes").add(1)
            SYNC.process(SP_CTRL_AFTER_POLICY_CHANGE)
            self._changed()

    def state(self) -> dict | None:
        """The controller's state for OP_STATS (None when nothing adapts)."""
        if self.controller is None:
            return None
        state = self.controller.stats_dict()
        state["active_style"] = self.style
        return state
