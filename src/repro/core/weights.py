"""The cost model: region weights as a function of input and output work.

The weight of a region (the work of the machine assigned to it) is

    w(r) = c_i(r) + c_o(r) = w_i * input(r) + w_o * output(r)

where ``input(r)`` is the region's semi-perimeter in tuples (tuples received
over the network, demarshalled and fed to the local join) and ``output(r)``
is the number of output tuples it produces (post-processing: writing or
shipping to the next operator).  ``w_i`` and ``w_o`` are per-tuple costs that
depend on the local join algorithm and the hardware; the paper obtains them
by linear regression over benchmark runs (``w_i = 1``, ``w_o = 0.2`` for
band-joins and ``w_o = 0.3`` for equi+band joins on their cluster).  See
:mod:`repro.engine.calibration` for the regression.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WeightFunction", "BAND_JOIN_WEIGHTS", "EQUI_BAND_JOIN_WEIGHTS", "STATS_SCAN_FACTOR"]

#: Cost of scanning one tuple while collecting statistics -- a batch
#: operator's statistics phase or a stream's histogram rebuild -- as a
#: fraction of the join-phase input cost ``w_i``.  Statistics scans read and
#: repartition tuples but do not run the local join, so they are cheaper per
#: tuple; 0.5 reproduces the paper's observation that building the CSIO
#: scheme takes roughly a third of the total time for input-dominated joins
#: and under 10% for output-dominated ones.
STATS_SCAN_FACTOR = 0.5


@dataclass(frozen=True)
class WeightFunction:
    """Linear cost model ``w = input_cost * input + output_cost * output``.

    Both coefficients must be non-negative and at least one must be positive;
    the model is monotonic and superadditive, as required by the paper's
    Lemma 3.1.
    """

    input_cost: float = 1.0
    output_cost: float = 1.0

    def __post_init__(self) -> None:
        if self.input_cost < 0 or self.output_cost < 0:
            raise ValueError("cost coefficients must be non-negative")
        if self.input_cost == 0 and self.output_cost == 0:
            raise ValueError("at least one cost coefficient must be positive")

    def weight(self, input_tuples: float, output_tuples: float) -> float:
        """Weight of a region with the given input and output sizes."""
        return self.input_cost * input_tuples + self.output_cost * output_tuples

    def __call__(self, input_tuples: float, output_tuples: float) -> float:
        return self.weight(input_tuples, output_tuples)

    def lower_bound_optimum(
        self, total_input: float, total_output: float, num_machines: int
    ) -> float:
        """Lower bound ``w_OPT`` on the optimum maximum region weight.

        Divides the total join work (assuming no input replication) equally
        among machines; used by the sampling stage to pick ``n_s`` and by the
        regionalization's binary search as the lower end of its range.
        """
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        return self.weight(total_input, total_output) / num_machines


#: Coefficients the paper's regression found for pure band-joins.
BAND_JOIN_WEIGHTS = WeightFunction(input_cost=1.0, output_cost=0.2)

#: Coefficients the paper's regression found for combined equi/band-joins.
EQUI_BAND_JOIN_WEIGHTS = WeightFunction(input_cost=1.0, output_cost=0.3)
