"""Fixture tests of the lock-discipline family (LCK001, LCK002)."""

from repro.analysis.framework import analyze_source

LIB = "src/repro/fleet/fixture.py"


def rules(source, path=LIB):
    ctx = analyze_source(source, path, select=["LCK001", "LCK002"])
    return [f.rule for f in ctx.findings]


#: Minimal shape of the real FleetScheduler bug this family caught: a
#: service-facing method mutating shared state without taking the lock.
UNLOCKED_WRITE = """
import threading

class Scheduler:
    def __init__(self):
        self.lock = threading.RLock()
        self.execution_paths = {}

    def evaluate(self, matrix):
        self.execution_paths.update({"frequency": "packed"})
        return []
"""

LOCKED_WRITE = """
import threading

class Scheduler:
    def __init__(self):
        self.lock = threading.RLock()
        self.execution_paths = {}

    def evaluate(self, matrix):
        with self.lock:
            self.execution_paths.update({"frequency": "packed"})
        return []
"""


class TestLck001UnlockedWrites:
    def test_unlocked_mutator_call_fires(self):
        assert "LCK001" in rules(UNLOCKED_WRITE)

    def test_locked_write_is_clean(self):
        assert "LCK001" not in rules(LOCKED_WRITE)

    def test_unlocked_assignment_fires(self):
        source = (
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def close(self):\n"
            "        self._closed = True\n"
        )
        assert "LCK001" in rules(source)

    def test_init_writes_are_exempt(self):
        source = (
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._closed = False\n"
        )
        assert "LCK001" not in rules(source)

    def test_classes_without_locks_are_ignored(self):
        source = (
            "class Plain:\n"
            "    def bump(self):\n"
            "        self.count = self.count + 1\n"
        )
        assert rules(source) == []

    def test_shared_lock_alias_marks_the_class(self):
        # FleetService aliases the scheduler's lock; discipline still applies.
        source = (
            "class Service:\n"
            "    def __init__(self, scheduler):\n"
            "        self._lock = scheduler.lock\n"
            "    def touch(self):\n"
            "        self.hits = 1\n"
        )
        assert "LCK001" in rules(source)

    def test_injection_locking_physics_is_not_threading(self):
        # The TRNG domain has injection-*locked* oscillators; lock_strength
        # is a float, not a mutex, and must not trigger lock discipline.
        source = (
            "class RingOscillator:\n"
            "    def __init__(self):\n"
            "        self.lock_strength = 0.4\n"
            "    def couple(self, k):\n"
            "        self.phase = k\n"
        )
        assert rules(source) == []


class TestLck002EvalUnderLock:
    def test_evaluation_under_lock_fires(self):
        source = (
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.RLock()\n"
            "    def round(self, matrix):\n"
            "        with self.lock:\n"
            "            return self.evaluate_matrix(matrix)\n"
        )
        assert "LCK002" in rules(source)

    def test_round_fan_out_under_lock_fires(self):
        # The fleet round's run_batch calls sit in worker functions the
        # rule cannot see through, so the fan-out method is a callee itself.
        source = (
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.RLock()\n"
            "    def run_round(self, devices, root):\n"
            "        with self.lock:\n"
            "            return self._evaluate_round(devices, root)\n"
        )
        assert "LCK002" in rules(source)

    def test_run_batch_under_lock_fires(self):
        source = (
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "    def go(self, m):\n"
            "        with self.lock:\n"
            "            reports = run_batch(m)\n"
            "        return reports\n"
        )
        assert "LCK002" in rules(source)

    def test_evaluation_outside_lock_is_clean(self):
        source = (
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "    def go(self, m):\n"
            "        reports = run_batch(m)\n"
            "        with self.lock:\n"
            "            self.results = reports\n"
            "        return reports\n"
        )
        assert "LCK002" not in rules(source)

    def test_lock_released_before_second_call(self):
        source = (
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self.lock = threading.Lock()\n"
            "    def go(self, m):\n"
            "        with self.lock:\n"
            "            payload = self.snapshot\n"
            "        return run_batch(payload)\n"
        )
        assert "LCK002" not in rules(source)
