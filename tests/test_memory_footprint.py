"""The solve's working set, counted with tracemalloc and with no timing or
RSS assertion: a change that makes a run hold more strip-sized arrays at
once fails here."""
import tracemalloc

from monodd import build_grid, default_decomposition, run_dd

from conftest import kpp

# Peak traced bytes of the solve over one strip field, (nt+1)(nx+1)
# doubles.  A run holds the bracket (2 fields), every slab's final state
# for resuming (4 in all by the last slab), its stabilizer (1) and the
# working set of the slab it sweeps; measured 10.4 on the 128x128 run
# below, against 27.7 when every window operator was built for the whole
# strip before the first sweep and kept to the end.
PEAK_STRIP_FIELDS = 14.0


def test_kpp_dd_peak_is_a_few_strip_fields():
    spec = kpp(8.0, 0.5, 0.5)
    grid = build_grid(spec.domain, 128, 128)
    decomp = default_decomposition(128)
    field = (grid.nt + 1) * (grid.nx + 1) * 8
    tracemalloc.start()
    try:
        sol, hist = run_dd(spec, grid, decomp, 1e-8, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.converged and len(hist.slab_sweeps) == 9
    assert peak / field <= PEAK_STRIP_FIELDS, f"peak {peak / field:.1f} strip fields"
