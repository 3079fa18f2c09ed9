"""Device registry: many simulated TRNG devices behind one health ledger.

The paper's platform monitors *one* TRNG; a production deployment tracks
thousands.  :class:`DeviceRegistry` is the fleet-side ledger: every
:class:`Device` couples a seeded scenario source (built from the campaign's
:class:`~repro.campaign.scenarios.ScenarioCatalog`) with its row of the
fleet's :class:`~repro.fleet.health.FleetHealth` columns (the health-state
machine of :class:`~repro.core.monitor.OnTheFlyMonitor`, one row per
device), while the platform (design point, alpha, health policy) is shared
fleet-wide — one design, many devices, exactly like a rollout of identical
parts.

The composition of a fleet is a :class:`FleetMix`: an ordered scenario →
weight mapping (e.g. 95% ``healthy-ideal``, 5% spread over threat labels)
resolved into exact per-scenario device counts by largest remainder and
placed deterministically from the fleet seed, so two fleets built from the
same spec are device-for-device identical.

Devices may also be registered *without* a simulated source
(``scenario=None``): those are externally-fed devices whose bits arrive
through the service front-end's ``POST /ingest`` instead of the scheduler's
simulated rounds.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.campaign.scenarios import DEFAULT_CATALOG, ScenarioCatalog
from repro.core.configs import DesignPoint, get_design
from repro.core.monitor import HealthState
from repro.core.platform import OnTheFlyPlatform
from repro.fleet.health import DeviceHealth, FleetHealth
from repro.trng.source import EntropySource

__all__ = ["Device", "DeviceRegistry", "FleetMix"]


def _device_seed(base: int, device_id: str) -> int:
    """Deterministic per-device seed for a given (fleet seed, device id).

    Note the id embeds :meth:`DeviceRegistry.populate`'s zero-pad width, so
    streams are stable per *id* (``"dev-0042"``), not per device index across
    differently-sized fleets.
    """
    return zlib.crc32(f"{base}:{device_id}".encode())


@dataclass(frozen=True)
class FleetMix:
    """Scenario mix of a fleet: ordered catalogue label → weight.

    Weights are relative (they need not sum to one); :meth:`counts` resolves
    them into exact per-scenario device counts by largest remainder, so a
    1000-device fleet at ``healthy-ideal: 0.95`` really holds 950 healthy
    devices.
    """

    weights: Tuple[Tuple[str, float], ...]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("a fleet mix needs at least one scenario")
        seen = set()
        for label, weight in self.weights:
            if weight <= 0:
                raise ValueError(f"scenario {label!r} has non-positive weight {weight}")
            if label in seen:
                raise ValueError(f"scenario {label!r} listed twice in the mix")
            seen.add(label)

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(label for label, _ in self.weights)

    @classmethod
    def parse(cls, spec: str) -> "FleetMix":
        """Parse a ``label:weight,label:weight`` CLI spec."""
        weights = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            label, sep, raw = part.rpartition(":")
            if not sep or not label:
                raise ValueError(
                    f"bad mix entry {part!r}; expected <scenario-label>:<weight>"
                )
            try:
                weight = float(raw)
            except ValueError:
                raise ValueError(f"bad mix weight {raw!r} for scenario {label!r}")
            weights.append((label.strip(), weight))
        return cls(tuple(weights))

    @classmethod
    def healthy_with_threats(
        cls,
        healthy_fraction: float = 0.95,
        threats: Sequence[str] = ("wire-cut", "biased-0.60", "freq-injection", "aging-drift"),
        healthy_label: str = "healthy-ideal",
    ) -> "FleetMix":
        """The canonical deployment mix: mostly healthy, a sliver of threats
        split evenly over ``threats``."""
        if not 0.0 < healthy_fraction < 1.0:
            raise ValueError("healthy_fraction must lie in (0, 1)")
        if not threats:
            raise ValueError("need at least one threat label")
        share = (1.0 - healthy_fraction) / len(threats)
        return cls(
            ((healthy_label, healthy_fraction),)
            + tuple((label, share) for label in threats)
        )

    def counts(self, num_devices: int) -> Dict[str, int]:
        """Exact per-scenario device counts (largest-remainder apportionment).

        Every scenario in the mix gets at least the floor of its share; the
        leftover devices go to the largest fractional remainders, ties broken
        by mix order.  The counts always sum to ``num_devices``.
        """
        if num_devices < 1:
            raise ValueError("num_devices must be positive")
        total = sum(weight for _, weight in self.weights)
        shares = [(label, num_devices * weight / total) for label, weight in self.weights]
        counts = {label: int(share) for label, share in shares}
        leftover = num_devices - sum(counts.values())
        remainders = sorted(
            ((share - int(share), -index, label) for index, (label, share) in enumerate(shares)),
            reverse=True,
        )
        for _, _, label in remainders[:leftover]:
            counts[label] += 1
        return counts

    def to_dict(self) -> Dict[str, float]:
        return {label: weight for label, weight in self.weights}

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "FleetMix":
        return cls(tuple(data.items()))


@dataclass
class Device:
    """One fleet member: identity, scenario, stream and health row.

    ``source`` is None for externally-fed devices (registered through the
    service): they take part in health tracking and summaries but are skipped
    by the scheduler's simulated rounds.  ``monitor`` reads the device's row
    of the registry's :class:`~repro.fleet.health.FleetHealth`.
    """

    device_id: str
    scenario: Optional[str]
    category: str
    expected_detectable: bool
    source: Optional[EntropySource]
    monitor: DeviceHealth
    seed: Optional[int] = None

    @property
    def state(self) -> HealthState:
        return self.monitor.state

    @property
    def is_control(self) -> bool:
        """True when this device's alarms count as false alarms."""
        return not self.expected_detectable

    @property
    def simulated(self) -> bool:
        return self.source is not None

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready health snapshot (the ``GET /devices/<id>/health`` body)."""
        monitor = self.monitor
        return {
            "device_id": self.device_id,
            "scenario": self.scenario,
            "category": self.category,
            "expected_detectable": self.expected_detectable,
            "simulated": self.simulated,
            "state": monitor.state.value,
            "sequences_monitored": monitor.sequences_monitored,
            "failure_rate": monitor.failure_rate(),
            "first_suspect_index": monitor.first_suspect_index,
            "first_failed_index": monitor.first_failed_index,
            "detection_latency_sequences": monitor.detection_latency_sequences(),
            "first_failing_tests": list(monitor.first_failing_tests or ()),
        }


class DeviceRegistry:
    """The fleet's device ledger over one shared design point.

    Parameters
    ----------
    design:
        Design point (name or :class:`~repro.core.configs.DesignPoint`)
        shared by every device — a fleet of identical deployed parts.
    alpha:
        Level of significance of the per-sequence verdicts.
    suspect_after / fail_after:
        Health policy of every device (consecutive failing sequences until
        SUSPECT / FAILED).
    catalog:
        Scenario catalogue the mix labels resolve against (default: the
        campaign's :data:`~repro.campaign.scenarios.DEFAULT_CATALOG`).

    Every device's health is a row of :attr:`health`; a device keeps its
    last folded sequence only (its ``history``), and every running total
    stays exact.
    """

    def __init__(
        self,
        design: "DesignPoint | str" = "n128_light",
        alpha: float = 0.01,
        suspect_after: int = 1,
        fail_after: int = 2,
        catalog: Optional[ScenarioCatalog] = None,
    ):
        self.platform = OnTheFlyPlatform(design, alpha=alpha)
        self.alpha = alpha
        self.suspect_after = suspect_after
        self.fail_after = fail_after
        self.catalog = catalog if catalog is not None else DEFAULT_CATALOG
        self.seed: Optional[int] = None
        #: Health columns, one row per device in registration order.
        self.health = FleetHealth(self.tests, suspect_after, fail_after)
        self._devices: Dict[str, Device] = {}
        #: Simulated devices and their health rows (rebuilt after a change).
        self._simulated: Optional[Tuple[List[Device], np.ndarray]] = None

    # ------------------------------------------------------------------ info
    @property
    def n(self) -> int:
        """Sequence length of the fleet's shared design point."""
        return self.platform.n

    @property
    def design_name(self) -> str:
        return self.platform.design.name

    @property
    def tests(self) -> Tuple[int, ...]:
        """NIST test numbers of the fleet's shared design point."""
        return tuple(self.platform.tests)

    def __len__(self) -> int:
        return len(self._devices)

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._devices

    def __iter__(self) -> Iterator[Device]:
        return iter(self._devices.values())

    def get(self, device_id: str) -> Device:
        if device_id not in self._devices:
            raise KeyError(f"unknown device {device_id!r}")
        return self._devices[device_id]

    def device_ids(self) -> Tuple[str, ...]:
        return tuple(self._devices)

    def simulated_devices(self) -> List[Device]:
        """Devices with a simulated source (the scheduler's round members)."""
        return list(self._simulated_members()[0])

    def simulated_rows(self) -> np.ndarray:
        """Health rows of :meth:`simulated_devices`, in the same order."""
        return self._simulated_members()[1]

    def _simulated_members(self) -> Tuple[List[Device], np.ndarray]:
        if self._simulated is None:
            devices = [device for device in self if device.simulated]
            rows = np.array([device.monitor.row for device in devices], dtype=np.intp)
            self._simulated = (devices, rows)
        return self._simulated

    # ------------------------------------------------------------------ build
    def register(
        self,
        device_id: str,
        scenario: Optional[str] = None,
        seed: Optional[int] = None,
    ) -> Device:
        """Register one device.

        With a ``scenario`` label the device gets a fresh seeded source built
        from the catalogue (scaled to the design's sequence length); without
        one it is externally fed (bits arrive via the service's ingest).
        """
        if device_id in self._devices:
            raise ValueError(f"device {device_id!r} already registered")
        if scenario is not None:
            spec = self.catalog.get(scenario)
            base = self.seed if self.seed is not None else 0
            source_seed = seed if seed is not None else _device_seed(base, device_id)
            device = Device(
                device_id=device_id,
                scenario=spec.label,
                category=spec.category,
                expected_detectable=spec.expected_detectable,
                source=spec.build(source_seed, self.n),
                monitor=DeviceHealth(self.health, self.health.add()),
                seed=source_seed,
            )
        else:
            device = Device(
                device_id=device_id,
                scenario=None,
                category="external",
                expected_detectable=True,
                source=None,
                monitor=DeviceHealth(self.health, self.health.add()),
                seed=None,
            )
        self._devices[device_id] = device
        self._simulated = None
        return device

    def populate(self, num_devices: int, mix: FleetMix, seed: int = 0) -> List[Device]:
        """Instantiate ``num_devices`` simulated devices from a scenario mix.

        The mix is resolved into exact counts (:meth:`FleetMix.counts`) and
        the scenario placement is shuffled with a generator seeded from the
        fleet seed, so device ids don't cluster by scenario yet the whole
        fleet is reproducible device for device.
        """
        counts = mix.counts(num_devices)
        for label in counts:
            self.catalog.get(label)  # fail fast on unknown labels
        assignment: List[str] = []
        for label, count in counts.items():
            assignment.extend([label] * count)
        rng = np.random.default_rng(seed)
        rng.shuffle(assignment)
        self.seed = seed
        width = max(4, len(str(num_devices - 1)))
        devices = []
        for index, label in enumerate(assignment):
            device_id = f"dev-{index:0{width}d}"
            devices.append(
                self.register(
                    device_id, scenario=label, seed=_device_seed(seed, device_id)
                )
            )
        return devices

    # ------------------------------------------------------------------ state dict
    def state_dict(self) -> Dict[str, Any]:
        """The fleet ledger as plain values (the snapshot's registry part).

        Device sources are pickled whole — a source *is* its RNG state, and
        restoring it bit-exactly is what makes replayed rounds reproduce
        the uninterrupted run.  Pickles are bytes blobs inside the state;
        only load snapshots you wrote yourself (unpickling executes code),
        which is the trust model of a service restoring its own spool
        directory.
        """
        devices: List[Dict[str, Any]] = []
        # Rows follow registration order, so the i-th row is the i-th device.
        for device, monitor in zip(self, self.health.state_dicts()):
            devices.append(
                {
                    "device_id": device.device_id,
                    "scenario": device.scenario,
                    "category": device.category,
                    "expected_detectable": device.expected_detectable,
                    "seed": device.seed,
                    "monitor": monitor,
                    "source_pickle": (
                        None
                        if device.source is None
                        else pickle.dumps(device.source, protocol=pickle.DEFAULT_PROTOCOL)
                    ),
                }
            )
        return {
            "version": 1,
            "design": self.design_name,
            "alpha": self.alpha,
            "suspect_after": self.suspect_after,
            "fail_after": self.fail_after,
            # Written for readers of the per-device-monitor format: every
            # device keeps its last event only.
            "max_history": 1,
            "seed": self.seed,
            "devices": devices,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` capture into this registry.

        The platform configuration (design point, alpha, health policy)
        must match the captured one; the current device ledger and health
        columns are replaced wholesale (``max_history`` is not checked:
        history is not part of the state).  See :meth:`state_dict` for the
        pickled-source trust caveat.
        """
        if state.get("version") != 1:
            raise ValueError(
                f"unsupported registry state version {state.get('version')!r}"
            )
        for key, expected in (
            ("design", self.design_name),
            ("alpha", self.alpha),
            ("suspect_after", self.suspect_after),
            ("fail_after", self.fail_after),
        ):
            if state[key] != expected:
                raise ValueError(
                    f"registry state mismatch: {key} is {state[key]!r}, "
                    f"this registry has {expected!r}"
                )
        health = FleetHealth(self.tests, self.suspect_after, self.fail_after)
        devices: Dict[str, Device] = {}
        for spec in state["devices"]:
            row = health.add()
            health.load_state(row, spec["monitor"])
            blob = spec["source_pickle"]
            source = None if blob is None else pickle.loads(blob)
            device = Device(
                device_id=spec["device_id"],
                scenario=spec["scenario"],
                category=spec["category"],
                expected_detectable=bool(spec["expected_detectable"]),
                source=source,
                monitor=DeviceHealth(health, row),
                seed=spec["seed"],
            )
            devices[device.device_id] = device
        self.seed = state["seed"]
        self.health = health
        self._devices = devices
        self._simulated = None

    @classmethod
    def from_state(
        cls, state: Dict[str, Any], catalog: Optional[ScenarioCatalog] = None
    ) -> "DeviceRegistry":
        """Build a registry (config + devices) from a :meth:`state_dict` capture."""
        registry = cls(
            state["design"],
            alpha=state["alpha"],
            suspect_after=state["suspect_after"],
            fail_after=state["fail_after"],
            catalog=catalog,
        )
        registry.load_state(state)
        return registry

    # ------------------------------------------------------------------ health
    def health_counts(self) -> Dict[str, int]:
        """Fleet health mix: state value → number of devices."""
        return self.health.counts()

    def scenario_counts(self) -> Dict[str, int]:
        """Devices per scenario label (externally-fed devices as ``None``)."""
        counts: Dict[str, int] = {}
        for device in self:
            key = device.scenario if device.scenario is not None else "external"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def reset_health(self) -> None:
        """Reset every device's health (sources keep streaming)."""
        self.health.reset()
