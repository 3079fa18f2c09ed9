"""Hardware half of NIST test 13 (Cumulative Sums) — and, via sharing, test 1.

An up/down counter tracks the ±1 random walk; two registers latch the walk's
maximum and minimum.  The three exported values S_max, S_min and S_final
(Table II) let the software evaluate both cusum modes *and* — the paper's
first sharing trick — recover the total number of ones as
``N_ones = (n + S_final) / 2`` so that the frequency test needs no dedicated
counter.
"""

from __future__ import annotations

from typing import List

from repro.hwsim.components import Component, Register, UpDownCounter
from repro.hwsim.register_file import RegisterFile
from repro.hwtests.base import HardwareTestUnit
from repro.hwtests.parameters import DesignParameters, counter_width

__all__ = ["CusumHW"]


class CusumHW(HardwareTestUnit):
    """Random-walk tracker: up/down counter plus max/min capture registers."""

    test_number = 13
    display_name = "Cumulative Sums Test"

    def __init__(self, params: DesignParameters):
        self.params = params
        # The walk stays within ±n; one sign bit plus enough magnitude bits.
        width = counter_width(params.n) + 1
        self._walk = UpDownCounter("t13_walk", width)
        # The capture registers reset to 0: the walk starts at S_0 = 0, which
        # belongs to the extremes of the backward walk (SP 800-22 §2.13).
        self._s_max = Register("t13_s_max", width)
        self._s_min = Register("t13_s_min", width)

    # -- per-clock behaviour -------------------------------------------------
    def process_bit(self, bit: int, index: int) -> None:
        self._walk.count(up=bool(bit))
        value = self._walk.value
        if value > self._signed(self._s_max.value):
            self._s_max.load(self._to_raw(value))
        if value < self._signed(self._s_min.value):
            self._s_min.load(self._to_raw(value))

    # -- two's-complement helpers (registers store raw bit patterns) ---------
    def _to_raw(self, signed_value: int) -> int:
        modulus = 1 << self._walk.width
        return signed_value % modulus

    def _signed(self, raw_value: int) -> int:
        modulus = 1 << self._walk.width
        if raw_value >= modulus // 2:
            return raw_value - modulus
        return raw_value

    # -- exported values ------------------------------------------------------
    @property
    def s_max(self) -> int:
        """Maximum of the random walk so far, S_0 = 0 included (>= 0)."""
        return self._signed(self._s_max.value)

    @property
    def s_min(self) -> int:
        """Minimum of the random walk so far, S_0 = 0 included (<= 0)."""
        return self._signed(self._s_min.value)

    @property
    def s_final(self) -> int:
        """Current (at end of sequence: final) value of the random walk."""
        return self._walk.value

    @property
    def derived_ones(self) -> int:
        """Number of ones derived from S_final (sharing trick 1).

        Only meaningful once the full sequence has been processed.
        """
        return (self.params.n + self.s_final) // 2

    def components(self) -> List[Component]:
        return [self._walk, self._s_max, self._s_min]

    def register_exports(self, register_file: RegisterFile) -> None:
        width = self._walk.width
        register_file.add("t13_s_max", width, lambda: self._to_raw(self.s_max))
        register_file.add("t13_s_min", width, lambda: self._to_raw(self.s_min))
        register_file.add("t13_s_final", width, lambda: self._to_raw(self.s_final))
