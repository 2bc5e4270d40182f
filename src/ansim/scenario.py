"""Scenario configuration: a single JSON document describing nodes, links,
timers, security parameters and scheduled faults.

Parsing is strict: unknown keys are rejected and every violation is reported
with its field path. A config round-trips: parse -> serialize -> parse gives
an identical value.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Any, Optional

from .model import CMU_ID, SimError
from .kernel import FaultKind, FaultSpec, LinkOverride, LinksConfig
from .security import ProfileKind, SecurityProfile


class ScenarioError(SimError):
    """Carries every violation found in one parse, with field paths."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


PROFILE_NAMES = tuple(p.value for p in ProfileKind)
# the SecurityConfig fields a SecurityProfile is built from
_OVERHEADS = ("sig_len", "encap_overhead", "handshake_msg_len")
FAULT_NAMES = tuple(k.value for k in FaultKind)


@dataclass(frozen=True)
class NodeSpec:
    """One node as the scenario gives it. ``hardware_id`` is an opaque value
    registered with the management unit; it never decides an ordering."""

    id: int
    hardware_id: int
    processing_power: int
    registered: bool = True


@dataclass(frozen=True)
class TimersConfig:
    status_period_ms: int = 5000
    sensor_data_period_ms: int = 10000
    rtt_timeout_ms: int = 2000


@dataclass(frozen=True)
class SecurityConfig:
    profile: str = "plain"
    # Overhead constants are calibrated so a standard seven-node run lands at
    # roughly 4x total wire bytes for auth-encap over plain and 3x over auth:
    # per data packet, (120 + 40 + 320) / 120 = 4.0 and 480 / 160 = 3.0.
    sig_len: int = 40
    encap_overhead: int = 320
    handshake_msg_len: int = 64
    tota_time_step_ms: int = 30000
    tota_skew_steps: int = 1
    payload_sensor_data: int = 120
    payload_status_broadcast: int = 120


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    seed: int
    duration_ms: int
    description: str = ""
    nodes: tuple[NodeSpec, ...] = ()
    links: LinksConfig = LinksConfig()
    timers: TimersConfig = TimersConfig()
    security: SecurityConfig = SecurityConfig()
    faults: tuple[FaultSpec, ...] = ()

    def node_ids(self) -> list[int]:
        return [n.id for n in self.nodes]

    def security_profile(self, override: Optional[str] = None) -> SecurityProfile:
        name = override or self.security.profile
        kind = ProfileKind(name)
        if kind is ProfileKind.PLAIN:
            return SecurityProfile.plain()
        if kind is ProfileKind.AUTH:
            return SecurityProfile.auth_only(sig_len=self.security.sig_len)
        return SecurityProfile.auth_encap(
            sig_len=self.security.sig_len,
            encap_overhead=self.security.encap_overhead,
            handshake_msg_len=self.security.handshake_msg_len)


# --------------------------------------------------------------------- parse

class _Reader:
    """Dict reader that records errors with paths and flags unknown keys."""

    def __init__(self, data: dict, path: str, errors: list[str]):
        self.data = data
        self.path = path
        self.errors = errors
        self.seen: set[str] = set()

    def err(self, key: str, message: str) -> None:
        where = f"{self.path}.{key}" if self.path else key
        self.errors.append(f"{where}: {message}")

    def take(self, key: str, kind, default=..., required=False):
        self.seen.add(key)
        if key not in self.data:
            if required:
                self.err(key, "required field is missing")
            return None if default is ... else default
        value = self.data[key]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if kind is int and isinstance(value, bool):
            self.err(key, "expected an integer, got a boolean")
            return None if default is ... else default
        if not isinstance(value, kind):
            self.err(key, f"expected {kind.__name__}, got {type(value).__name__}")
            return None if default is ... else default
        return value

    def finish(self) -> None:
        for key in self.data:
            if key not in self.seen:
                self.err(key, "unknown key")


def _parse_node(data: Any, idx: int, errors: list[str]) -> Optional[NodeSpec]:
    path = f"nodes[{idx}]"
    if not isinstance(data, dict):
        errors.append(f"{path}: expected an object")
        return None
    r = _Reader(data, path, errors)
    nid = r.take("id", int, required=True)
    hw = r.take("hardware_id", int, required=True)
    power = r.take("processing_power", int, required=True)
    registered = r.take("registered", bool, default=NodeSpec.registered)
    r.finish()
    if nid is None or hw is None or power is None:
        return None
    if nid < 1:
        r.err("id", f"node ids start at 1 (id 0 is reserved), got {nid}")
    if power <= 0:
        r.err("processing_power", f"must be > 0, got {power}")
    return NodeSpec(id=nid, hardware_id=hw, processing_power=power,
                    registered=bool(registered))


def _parse_links(data: Any, errors: list[str],
                 node_ids: set[int]) -> LinksConfig:
    if data is None:
        return LinksConfig()
    if not isinstance(data, dict):
        errors.append("links: expected an object")
        return LinksConfig()
    r = _Reader(data, "links", errors)
    latency = r.take("latency_ms", int, default=LinksConfig.latency_ms)
    jitter = r.take("jitter_ms", int, default=LinksConfig.jitter_ms)
    loss = r.take("loss_probability", float,
                  default=LinksConfig.loss_probability)
    raw_overrides = r.take("overrides", list, default=[])
    r.finish()
    if latency < 0:
        r.err("latency_ms", "must be >= 0")
    if jitter < 0:
        r.err("jitter_ms", "must be >= 0")
    if not 0.0 <= loss <= 1.0:
        r.err("loss_probability", f"must be within [0, 1], got {loss}")
    overrides = []
    by_pair: dict[tuple[int, int], int] = {}
    for i, item in enumerate(raw_overrides):
        path = f"links.overrides[{i}]"
        if not isinstance(item, dict):
            errors.append(f"{path}: expected an object")
            continue
        ro = _Reader(item, path, errors)
        src = ro.take("src", int, required=True)
        dst = ro.take("dst", int, required=True)
        olat = ro.take("latency_ms", int, default=latency)
        ojit = ro.take("jitter_ms", int, default=jitter)
        oloss = ro.take("loss_probability", float, default=loss)
        ro.finish()
        if src is None or dst is None:
            continue
        for label, endpoint in (("src", src), ("dst", dst)):
            if endpoint != CMU_ID and endpoint not in node_ids:
                ro.err(label, f"unknown node id {endpoint}")
        # a value taken from the default link was checked there
        for key, value in (("latency_ms", olat), ("jitter_ms", ojit)):
            if value < 0 and key in item:
                ro.err(key, "must be >= 0")
        if not 0.0 <= oloss <= 1.0:
            ro.err("loss_probability", f"must be within [0, 1], got {oloss}")
        if (src, dst) in by_pair:
            errors.append(f"{path}: duplicate of links.overrides"
                          f"[{by_pair[src, dst]}] ({src} -> {dst})")
        else:
            by_pair[src, dst] = i
        overrides.append(LinkOverride(src=src, dst=dst, latency_ms=olat,
                                     jitter_ms=ojit, loss_probability=oloss))
    return LinksConfig(latency_ms=latency, jitter_ms=jitter,
                       loss_probability=loss, overrides=tuple(overrides))


def _parse_timers(data: Any, errors: list[str]) -> TimersConfig:
    if data is None:
        return TimersConfig()
    if not isinstance(data, dict):
        errors.append("timers: expected an object")
        return TimersConfig()
    r = _Reader(data, "timers", errors)
    values = {}
    for f in fields(TimersConfig):
        value = r.take(f.name, int, default=f.default)
        if value <= 0:
            r.err(f.name, f"must be > 0, got {value}")
        values[f.name] = value
    r.finish()
    return TimersConfig(**values)


def _parse_security(data: Any, errors: list[str]) -> SecurityConfig:
    if data is None:
        return SecurityConfig()
    if not isinstance(data, dict):
        errors.append("security: expected an object")
        return SecurityConfig()
    r = _Reader(data, "security", errors)
    # the profile name comes first; every other field is an integer
    profile_field, *int_fields = fields(SecurityConfig)
    profile = r.take("profile", str, default=profile_field.default)
    if profile not in PROFILE_NAMES:
        r.err("profile", f"must be one of {list(PROFILE_NAMES)}, got {profile!r}")
        profile = profile_field.default
    values = {}
    for f in int_fields:
        value = r.take(f.name, int, default=f.default)
        if value < 0:
            r.err(f.name, f"must be >= 0, got {value}")
        values[f.name] = value
    r.finish()
    if values["tota_time_step_ms"] <= 0:
        r.err("tota_time_step_ms", "must be > 0")
    for name in ("payload_sensor_data", "payload_status_broadcast"):
        if values[name] <= 0:
            r.err(name, "must be > 0")
    # ``run --profile`` and ``compare`` may build any profile from these, so
    # each overhead must pass the checks of auth-encap, which uses all three
    valid = {name: getattr(SecurityConfig, name) for name in _OVERHEADS}
    for name in _OVERHEADS:
        if values[name] >= 0:  # a negative one is reported above
            try:
                SecurityProfile.auth_encap(**dict(valid,
                                                  **{name: values[name]}))
            except SimError as exc:
                r.err(name, str(exc))
    return SecurityConfig(profile=profile, **values)


def _parse_fault(data: Any, idx: int, errors: list[str],
                 node_ids: set[int]) -> Optional[FaultSpec]:
    path = f"faults[{idx}]"
    if not isinstance(data, dict):
        errors.append(f"{path}: expected an object")
        return None
    r = _Reader(data, path, errors)
    target = r.take("target", int, required=True)
    kind = r.take("kind", str, required=True)
    at_ms = r.take("at_ms", int, required=True)
    n = r.take("n", int, default=FaultSpec.n)
    r.finish()
    if target is None or kind is None or at_ms is None:
        return None
    if kind not in FAULT_NAMES:
        r.err("kind", f"must be one of {list(FAULT_NAMES)}, got {kind!r}")
        return None
    if target not in node_ids:
        r.err("target", f"unknown node id {target}")
    if at_ms < 0:
        r.err("at_ms", "must be >= 0")
    if kind == FaultKind.DROP_NEXT_N.value and n <= 0:
        r.err("n", "drop_next_n requires n > 0")
        return None
    return FaultSpec(target=target, kind=FaultKind(kind), at_ms=at_ms, n=n)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse one JSON scenario document, collecting every violation."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"document: invalid JSON ({exc})"]) from exc
    if not isinstance(data, dict):
        raise ScenarioError(["document: expected a JSON object"])

    errors: list[str] = []
    r = _Reader(data, "", errors)
    name = r.take("name", str, required=True)
    description = r.take("description", str,
                         default=ScenarioConfig.description)
    seed = r.take("seed", int, required=True)
    duration = r.take("duration_ms", int, required=True)
    raw_nodes = r.take("nodes", list, required=True)
    raw_links = r.take("links", dict, default=None)
    raw_timers = r.take("timers", dict, default=None)
    raw_security = r.take("security", dict, default=None)
    raw_faults = r.take("faults", list, default=[])
    r.finish()

    if seed is not None and not 0 <= seed < 2 ** 64:
        r.err("seed", "must fit in an unsigned 64-bit integer")
    if duration is not None and duration <= 0:
        r.err("duration_ms", "must be > 0")

    nodes: list[NodeSpec] = []
    if raw_nodes is not None:
        if not raw_nodes:
            errors.append("nodes: at least one node is required")
        for i, item in enumerate(raw_nodes):
            node = _parse_node(item, i, errors)
            if node is not None:
                nodes.append(node)
        by_id: dict[int, int] = {}
        for i, node in enumerate(nodes):
            if node.id in by_id:
                errors.append(
                    f"nodes[{i}].id: duplicate of nodes[{by_id[node.id]}].id "
                    f"(id {node.id})")
            else:
                by_id[node.id] = i

    node_ids = {n.id for n in nodes}
    links = _parse_links(raw_links, errors, node_ids)
    timers = _parse_timers(raw_timers, errors)
    security = _parse_security(raw_security, errors)

    faults: list[FaultSpec] = []
    if raw_faults is not None:
        for i, item in enumerate(raw_faults):
            entry = _parse_fault(item, i, errors, node_ids)
            if entry is not None:
                faults.append(entry)

    # Missed-packet detection needs the grace window (a quarter period) to
    # exceed the one-way latency, otherwise in-flight packets are flagged.
    min_period = min(timers.status_period_ms, timers.sensor_data_period_ms)
    max_latency = links.latency_ms + links.jitter_ms
    for ov in links.overrides:
        max_latency = max(max_latency, ov.latency_ms + ov.jitter_ms)
    if max_latency >= min_period // 4:
        errors.append(
            "links.latency_ms: latency plus jitter must stay below a quarter "
            f"of the shortest period ({min_period // 4} ms)")
    # A response's time step is taken when its challenge arrives and checked
    # one link later; a response checked outside the skew window rejects an
    # honest node for good. A step already rejected may be 0.
    step = security.tota_time_step_ms
    if step > 0:
        crossed = (max_latency + step - 1) // step
        if crossed > security.tota_skew_steps:
            errors.append(
                f"security.tota_skew_steps: must be >= {crossed}, the number "
                f"of {step} ms time steps that latency plus jitter of up to "
                f"{max_latency} ms can cross")

    if errors:
        raise ScenarioError(errors)
    return ScenarioConfig(name=name, description=description, seed=seed,
                          duration_ms=duration, nodes=tuple(nodes),
                          links=links, timers=timers, security=security,
                          faults=tuple(faults))


# ----------------------------------------------------------------- serialize

def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return {
        "name": cfg.name,
        "description": cfg.description,
        "seed": cfg.seed,
        "duration_ms": cfg.duration_ms,
        "nodes": [asdict(n) for n in cfg.nodes],
        "links": asdict(cfg.links),
        "timers": asdict(cfg.timers),
        "security": asdict(cfg.security),
        "faults": [
            {k: v for k, v in (("target", f.target), ("kind", f.kind.value),
                               ("at_ms", f.at_ms), ("n", f.n))
             if not (k == "n" and f.kind is not FaultKind.DROP_NEXT_N)}
            for f in cfg.faults
        ],
    }


def scenario_to_json(cfg: ScenarioConfig) -> str:
    return json.dumps(scenario_to_dict(cfg), indent=2) + "\n"


# --------------------------------------------------------------------- load

def builtin_scenario_names() -> list[str]:
    root = resources.files("ansim").joinpath("scenarios")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def load_scenario(path_or_name: str) -> ScenarioConfig:
    """Load a scenario from a file path or a bundled scenario name."""
    path = Path(path_or_name)
    if path.exists():
        return parse_scenario(path.read_text())
    bundled = resources.files("ansim").joinpath(
        "scenarios", f"{path_or_name}.json")
    if bundled.is_file():
        return parse_scenario(bundled.read_text())
    raise ScenarioError(
        [f"scenario: no such file or bundled scenario {path_or_name!r} "
         f"(bundled: {', '.join(builtin_scenario_names())})"])
