"""One admission rule: every budget refusal goes through ``models.admit``.

Each case is refused before anything sized is allocated: exit 2, one
``error:`` line that names the estimate and the budget in the one message
form, a ``tracemalloc`` peak under 1 MiB, no file written and no time
spent.  The boundary tests stay with their commands (2S = 342 / 343 and
qubits n = 6 / 7 in ``test_rings`` and ``test_product_grid``, ``star`` at
3 / 4 points in ``test_render_cli``).
"""

import re
import time
import tracemalloc
from decimal import Decimal

import pytest

from sweyl import models, phase_space as ps
from sweyl.cli import _phasespace_bytes, main
from sweyl.clebsch import HalfInt
from sweyl.models import MultipartiteModel, SpinModel
from sweyl.verify import dense_bytes

HUGE = 10 ** 400  # a 401-digit --samples, past the float range


def kernel_stack_past_the_budget():
    # A library route: the ValueError is what ``main`` turns into exit 2.
    # A range has a length and holds no points.
    ps.kernel_stack(SpinModel(2), range(10 ** 7),
                    ps.KernelSpec.cahill_glauber(0.0))


# (argv or library call, "bytes" or "work units", the estimate)
CASES = {
    "phasespace-grid": (["phasespace", "--grid", "4000x8000"], "bytes",
                        _phasespace_bytes(4000, 8000, SpinModel(2), 1, 5,
                                          1)),
    "verify-spin-200": (["verify", "--spin-S", "200"], "bytes",
                        dense_bytes(SpinModel(HalfInt(400)))),
    "verify-multipartite-7": (["verify", "--qrt", "multipartite", "--n", "7"],
                              "bytes", dense_bytes(MultipartiteModel(7))),
    "star-points": (["star", "--spin-S", "2", "--points", "198758"],
                    "work units", 198758 * (5 ** 3 + 2 * 10 ** 4)),
    "duality-fermionic-10": (["duality", "--qrt", "fermionic", "--n", "10",
                              "--samples", "3000"], "work units",
                             4 * 3000 * 4 ** 10 * 10),
    "duality-401-digits": (["duality", "--samples", str(HUGE)], "work units",
                           HUGE * (5 ** 3 + 64 * 5 ** 2 + 8192 * 5 + 12288)
                           // 128),
    "kernel-stack": (kernel_stack_past_the_budget, "bytes",
                     3 * 10 ** 7 * 25 * 16),
}


@pytest.mark.parametrize("case", list(CASES))
def test_budget_refusal(tmp_path, capsys, case):
    run, unit, estimate = CASES[case]
    out = tmp_path / "out"
    start = time.perf_counter()
    tracemalloc.start()
    try:
        if callable(run):
            with pytest.raises(ValueError) as exc:
                run()
            code, err = 2, f"error: {exc.value}\n"
        else:
            code = main(run + ["--out", str(out)])
            err = capsys.readouterr().err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert time.perf_counter() - start < 1.0
    budget = models.BYTES_BUDGET if unit == "bytes" else models.WORK_BUDGET
    assert estimate > budget
    form = re.fullmatch(r"error: .+ needs about (\S+) ([a-z ]+), over the "
                        r"budget of (\S+)\n", err)
    assert form and err.count("\n") == 1
    assert form.groups() == (f"{Decimal(estimate):.2g}", unit,
                             f"{Decimal(budget):.2g}")
    assert peak < 2 ** 20
    assert not out.exists()
