"""Scenario definition, validation, presets and INI config parsing."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..energy import EnergyParams

ROUTERS = ("prif", "prif-noprivacy", "epidemic", "prophet")
CRYPTO_PRESETS = ("toy", "2048")
ANTIPACKET_MODES = ("gossip", "instant", "off")
MB = 1024 * 1024
KB = 1024


@dataclass(frozen=True)
class GroupSpec:
    """One node class: population, kinematics, radio and traffic role."""

    name: str
    count: int
    speed_range: tuple[float, float]
    pause_range: tuple[float, float]
    radio_range: float
    link_rate_bps: float
    generates_messages: bool = True

    def validate(self) -> None:
        if not all(map(math.isfinite, (*self.speed_range, *self.pause_range,
                                       self.radio_range, self.link_rate_bps))):
            raise ValueError(f"group {self.name!r}: numbers must be finite")
        if self.count <= 0:
            raise ValueError(f"group {self.name!r}: count must be positive")
        if not 0.0 < self.speed_range[0] <= self.speed_range[1]:
            raise ValueError(f"group {self.name!r}: bad speed range {self.speed_range}")
        if not 0.0 <= self.pause_range[0] <= self.pause_range[1]:
            raise ValueError(f"group {self.name!r}: bad pause range {self.pause_range}")
        if self.radio_range <= 0.0:
            raise ValueError(f"group {self.name!r}: radio range must be positive")
        if self.link_rate_bps <= 0.0:
            raise ValueError(f"group {self.name!r}: link rate must be positive")


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs; identical (scenario, seed) means an
    identical trace, identical decisions and a byte-identical report."""

    area: tuple[float, float] = (4500.0, 3400.0)
    groups: tuple[GroupSpec, ...] = ()
    interests: int = 3
    message_interval: tuple[float, float] = (50.0, 90.0)
    message_size: tuple[int, int] = (500 * KB, 1024 * KB)
    ttl_min: float = 600.0
    buffer_bytes: int = 10 * MB
    duration: float = 40_000.0
    warmup: float = 5_000.0
    seed: int = 1
    router: str = "prif"
    energy: EnergyParams = field(default_factory=EnergyParams)
    antipacket_mode: str = "gossip"
    forward_and_delete: bool = False
    charge_handshake_bytes: bool = False
    crypto: str = "toy"
    bus_community_mode: str = "uniform"   # uniform | own
    arrival_mode: str = "global"          # global | per-node
    payload_token_bytes: int = 24
    prophet_p_init: float = 0.75
    prophet_beta: float = 0.25
    prophet_gamma: float = 0.98
    mobility_dt: float = 1.0

    def validate(self) -> None:
        if not self.groups:
            raise ValueError("scenario needs at least one node group")
        for g in self.groups:
            g.validate()
        # NaN passes every `<= 0` check below; an infinite horizon never ends
        # (EnergyParams checks its own numbers)
        if not all(map(math.isfinite, (
                *self.area, *self.message_interval, *self.message_size,
                self.ttl_min, self.buffer_bytes, self.duration, self.warmup,
                self.prophet_p_init, self.prophet_beta, self.prophet_gamma,
                self.mobility_dt))):
            raise ValueError("scenario numbers must be finite")
        if self.area[0] <= 0 or self.area[1] <= 0:
            raise ValueError("area must be positive in both dimensions")
        if self.interests <= 0:
            raise ValueError("need at least one interest community")
        if not 0.0 < self.message_interval[0] <= self.message_interval[1]:
            raise ValueError(f"bad message interval range {self.message_interval}")
        if not 0 < self.message_size[0] <= self.message_size[1]:
            raise ValueError(f"bad message size range {self.message_size}")
        if self.ttl_min <= 0:
            raise ValueError("ttl must be positive")
        if self.buffer_bytes <= 0:
            raise ValueError("buffer capacity must be positive")
        if not 0 <= self.warmup < self.duration:
            raise ValueError("warmup must satisfy 0 <= warmup < duration")
        if self.router not in ROUTERS:
            raise ValueError(f"unknown router {self.router!r}; valid: {', '.join(ROUTERS)}")
        if self.crypto not in CRYPTO_PRESETS:
            raise ValueError(f"unknown crypto preset {self.crypto!r}; valid: {', '.join(CRYPTO_PRESETS)}")
        if self.antipacket_mode not in ANTIPACKET_MODES:
            raise ValueError(f"unknown antipacket mode {self.antipacket_mode!r}; valid: {', '.join(ANTIPACKET_MODES)}")
        if self.bus_community_mode not in ("uniform", "own"):
            raise ValueError("bus_community_mode must be 'uniform' or 'own'")
        if self.arrival_mode not in ("global", "per-node"):
            raise ValueError("arrival_mode must be 'global' or 'per-node'")
        if self.mobility_dt <= 0:
            raise ValueError("mobility tick must be positive")
        if not any(g.generates_messages for g in self.groups):
            raise ValueError("at least one group must generate messages")

    # -- derived node population ------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return sum(g.count for g in self.groups)

    def node_group_index(self) -> np.ndarray:
        out = np.empty(self.n_nodes, dtype=np.int64)
        base = 0
        for gi, g in enumerate(self.groups):
            out[base:base + g.count] = gi
            base += g.count
        return out

    def per_node(self, attr: str) -> np.ndarray:
        gi = self.node_group_index()
        vals = np.array([getattr(g, attr) for g in self.groups], dtype=np.float64)
        return vals[gi]

    def per_node_range(self, attr: str) -> tuple[np.ndarray, np.ndarray]:
        gi = self.node_group_index()
        lo = np.array([getattr(g, attr)[0] for g in self.groups], dtype=np.float64)
        hi = np.array([getattr(g, attr)[1] for g in self.groups], dtype=np.float64)
        return lo[gi], hi[gi]

    def generating_nodes(self) -> np.ndarray:
        gi = self.node_group_index()
        gen = np.array([g.generates_messages for g in self.groups], dtype=bool)
        return np.nonzero(gen[gi])[0]

    def with_overrides(self, **kw) -> "Scenario":
        return replace(self, **kw)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def paper_preset(seed: int = 1, router: str = "prif") -> Scenario:
    """Full-population evaluation regime: 4 x 40 walkers/cars plus 6 buses."""
    groups = (
        GroupSpec("pedestrians_a", 40, (0.5, 1.5), (100.0, 200.0), 10.0, 2e6),
        GroupSpec("pedestrians_b", 40, (0.5, 1.5), (100.0, 200.0), 10.0, 2e6),
        GroupSpec("cars_a", 40, (2.7, 13.9), (100.0, 200.0), 10.0, 2e6),
        GroupSpec("cars_b", 40, (2.7, 13.9), (100.0, 200.0), 10.0, 2e6),
        GroupSpec("buses", 6, (7.0, 10.0), (100.0, 200.0), 100.0, 10e6,
                  generates_messages=False),
    )
    return Scenario(groups=groups, interests=4, duration=400_000.0,
                    warmup=5_000.0, buffer_bytes=10 * MB, ttl_min=600.0,
                    seed=seed, router=router)


def desk_preset(seed: int = 1, router: str = "prif") -> Scenario:
    """Desk-scale regime: 63 nodes in the same area, shorter run.

    Radio ranges are widened relative to the full regime so the thinner
    population still produces enough encounters for community structure to
    form; buffers are scaled down to keep the same pressure.
    """
    groups = (
        GroupSpec("pedestrians", 20, (0.5, 1.5), (100.0, 200.0), 50.0, 2e6),
        GroupSpec("cars_a", 20, (2.7, 13.9), (100.0, 200.0), 50.0, 2e6),
        GroupSpec("cars_b", 20, (2.7, 13.9), (100.0, 200.0), 50.0, 2e6),
        GroupSpec("buses", 3, (7.0, 10.0), (100.0, 200.0), 200.0, 10e6,
                  generates_messages=False),
    )
    return Scenario(groups=groups, interests=3, duration=40_000.0,
                    warmup=5_000.0, buffer_bytes=4 * MB, ttl_min=600.0,
                    seed=seed, router=router)


PRESETS = {"paper": paper_preset, "desk": desk_preset}


# ---------------------------------------------------------------------------
# INI config files
# ---------------------------------------------------------------------------

def _parse_range(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition(":")
    return float(lo), float(hi)


def _parse_int_range(text: str) -> tuple[int, int]:
    lo, hi = _parse_range(text)
    return int(lo), int(hi)


def _parse_area(text: str) -> tuple[float, float]:
    w, _, h = text.partition("x")
    return float(w), float(h)


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


# [scenario] key -> (Scenario field, parser); "preset" picks the base and the
# energy keys override fields of the base's EnergyParams.
_SCENARIO_KEYS = {
    "area": ("area", _parse_area),
    "message_interval": ("message_interval", _parse_range),
    "message_size": ("message_size", _parse_int_range),
    "buffer_mb": ("buffer_bytes", lambda text: int(float(text) * MB)),
    "antipackets": ("antipacket_mode", str),
    **{key: (key, int) for key in ("interests", "seed", "payload_token_bytes")},
    **{key: (key, float) for key in ("ttl_min", "duration", "warmup", "mobility_dt",
                                     "prophet_p_init", "prophet_beta", "prophet_gamma")},
    **{key: (key, str) for key in ("router", "crypto", "bus_community_mode",
                                   "arrival_mode")},
    **{key: (key, _parse_bool) for key in ("forward_and_delete",
                                           "charge_handshake_bytes")},
}
_ENERGY_KEYS = ("alpha", "beta", "gamma", "window")
_GROUP_REQUIRED = ("count", "speed", "radio", "link_rate")
_GROUP_KEYS = {*_GROUP_REQUIRED, "pause", "generates"}


def scenario_from_ini(path: str | Path) -> Scenario:
    """Load a scenario from a key = value config with [scenario] and
    [group:<name>] sections; unknown keys are rejected with diagnostics."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    if "scenario" not in cp:
        raise ValueError(f"{path}: missing [scenario] section")
    sc = cp["scenario"]
    unknown = set(sc) - {"preset", *_SCENARIO_KEYS, *_ENERGY_KEYS}
    if unknown:
        raise ValueError(f"{path}: unknown scenario keys: {sorted(unknown)}")

    base = PRESETS[sc["preset"]]() if "preset" in sc else Scenario()
    kw = {name: parse(sc[key]) for key, (name, parse) in _SCENARIO_KEYS.items()
          if key in sc}
    energy_kw = {name: float(sc[name]) for name in _ENERGY_KEYS if name in sc}
    if energy_kw:
        kw["energy"] = replace(base.energy, **energy_kw)

    groups = []
    for section in cp.sections():
        if section == "scenario":
            continue
        if not section.startswith("group:"):
            raise ValueError(f"{path}: unknown section [{section}]; valid: "
                             "[scenario], [group:<name>]")
        g = cp[section]
        for bad, keys in (("unknown", sorted(set(g) - _GROUP_KEYS)),
                          ("missing", [k for k in _GROUP_REQUIRED if k not in g])):
            if keys:
                raise ValueError(f"{path}: [{section}]: {bad} keys: {keys}")
        groups.append(GroupSpec(
            name=section.split(":", 1)[1],
            count=g.getint("count"),
            speed_range=_parse_range(g["speed"]),
            pause_range=_parse_range(g.get("pause", "100:200")),
            radio_range=g.getfloat("radio"),
            link_rate_bps=g.getfloat("link_rate"),
            generates_messages=g.getboolean("generates", fallback=True),
        ))
    if groups:
        kw["groups"] = tuple(groups)

    scenario = base.with_overrides(**kw)
    scenario.validate()
    return scenario
