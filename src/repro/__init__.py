"""repro — Embedded HW/SW platform for on-the-fly testing of TRNGs.

A faithful, fully software reproduction of

    B. Yang, V. Rožić, N. Mentens, W. Dehaene, I. Verbauwhede,
    "Embedded HW/SW Platform for On-the-Fly Testing of True Random Number
    Generators", DATE 2015.

Top-level quickstart::

    from repro import OnTheFlyPlatform, IdealSource

    platform = OnTheFlyPlatform("n65536_high", alpha=0.01)
    report = platform.evaluate_source(IdealSource(seed=1))
    print(report.passed, report.failing_tests)

Sub-packages
------------
``repro.campaign``
    Detection-evaluation campaigns: the threat-scenario catalogue and the
    (scenario x design) sweep measuring detection probability, latency and
    per-test attribution through the batch engine.
``repro.core``
    The HW/SW co-designed platform (design points, per-sequence evaluation,
    continuous monitoring, value-based reporting).
``repro.hwtests`` / ``repro.hwsim``
    The bit-serial hardware testing block of Fig. 2 and the component /
    resource model underneath it.
``repro.sw``
    The 16-bit software platform: verification routines, precomputed critical
    values, PWL x·log(x), instruction and cycle counting.
``repro.engine``
    The unified batch test engine: shared-statistic batches, the uniform
    test registry (NIST / FIPS / hw-model) and the vectorised batch executor.
``repro.fleet``
    Fleet monitoring: a registry of many simulated devices, the multiplexed
    scheduler pushing whole fleets through the engine per round, fleet-level
    reporting and the stdlib HTTP/JSON service front-end.
``repro.nist``
    Reference implementations of all 15 NIST SP 800-22 tests (golden model).
``repro.trng``
    Entropy-source and attack simulators.
``repro.eval``
    FPGA / ASIC / latency estimation and the standalone-implementation
    baseline used for the Table IV comparison.
"""

from repro.campaign import (
    CampaignCell,
    CampaignConfig,
    CampaignReport,
    DEFAULT_CATALOG,
    ScenarioCatalog,
    ScenarioSpec,
    run_campaign,
)
from repro.core import (
    DesignPoint,
    FlexibleLengthPlatform,
    HealthState,
    MonitorEvent,
    OnTheFlyMonitor,
    OnTheFlyPlatform,
    PlatformReport,
    STANDARD_DESIGNS,
    get_design,
    list_designs,
)
from repro.engine import (
    BatchContext,
    DEFAULT_REGISTRY,
    EngineReport,
    TestRegistry,
    run_batch,
)
from repro.fips import FipsBattery
from repro.fleet import (
    DeviceRegistry,
    FleetMix,
    FleetReport,
    FleetScheduler,
    FleetService,
)
from repro.hwtests import DesignParameters, SharingOptions, UnifiedTestingBlock
from repro.nist import BitSequence, NistSuite, TestResult, run_all_tests
from repro.sw import CriticalValues, InstructionCounts, SoftwareVerifier
from repro.trng import (
    AgingSource,
    AlternatingSource,
    BiasedSource,
    BurstFailureSource,
    CaptureSource,
    CorrelatedSource,
    DeadSource,
    EMInjectionAttack,
    EntropySource,
    FrequencyInjectionAttack,
    IdealSource,
    OscillatingBiasSource,
    ProbingAttack,
    ReplaySource,
    RingOscillatorTRNG,
    StuckAtSource,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # campaign
    "CampaignCell",
    "CampaignConfig",
    "CampaignReport",
    "DEFAULT_CATALOG",
    "ScenarioCatalog",
    "ScenarioSpec",
    "run_campaign",
    # core
    "DesignPoint",
    "FlexibleLengthPlatform",
    "HealthState",
    "MonitorEvent",
    "OnTheFlyMonitor",
    "OnTheFlyPlatform",
    "PlatformReport",
    "STANDARD_DESIGNS",
    "get_design",
    "list_designs",
    # engine
    "BatchContext",
    "DEFAULT_REGISTRY",
    "EngineReport",
    "TestRegistry",
    "run_batch",
    # fips
    "FipsBattery",
    # fleet
    "DeviceRegistry",
    "FleetMix",
    "FleetReport",
    "FleetScheduler",
    "FleetService",
    # hardware
    "DesignParameters",
    "SharingOptions",
    "UnifiedTestingBlock",
    # nist
    "BitSequence",
    "NistSuite",
    "TestResult",
    "run_all_tests",
    # software
    "CriticalValues",
    "InstructionCounts",
    "SoftwareVerifier",
    # trng
    "AgingSource",
    "AlternatingSource",
    "BiasedSource",
    "BurstFailureSource",
    "CaptureSource",
    "CorrelatedSource",
    "DeadSource",
    "EMInjectionAttack",
    "EntropySource",
    "FrequencyInjectionAttack",
    "IdealSource",
    "OscillatingBiasSource",
    "ProbingAttack",
    "ReplaySource",
    "RingOscillatorTRNG",
    "StuckAtSource",
]
