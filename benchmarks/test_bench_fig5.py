"""Benchmark: regenerate Figure 5 (the single high-nLat configuration).

Paper reference: at cLat=0.3, nLat=0.9, N=20, B=36 the per-round overhead
is so large that RUMR's phase-2 threshold keeps phase 2 off at small
error; once error crosses the threshold the competitors' relative
makespans jump up sharply ("this pattern explicitly demonstrates the
benefit of splitting the execution in two phases").

The assertion checks for that jump: the UMR series must rise from ~parity
at error 0 and its largest single-step increase must occur at the error
value where the per-worker threshold `error·W/N >= cLat + nLat·N` first
passes (error* = N·(cLat + N·nLat)/W = 0.366 here, so between grid points
0.3 and 0.4 on the smoke error axis).

``fig5`` is the figure's one definition, shared with ``repro fig5``: it
sweeps the single configuration at no fewer than the paper's 40
repetitions, whatever the base grid's count.
"""

from repro.experiments.config import smoke_grid
from repro.experiments.figures import fig5
from repro.experiments.report import ascii_chart, figure_csv


def regenerate_fig5(grid):
    return fig5(grid)


def test_bench_fig5(benchmark):
    grid = smoke_grid().restrict(
        errors=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5), repetitions=20
    )
    fig = benchmark.pedantic(regenerate_fig5, args=(grid,), rounds=1, iterations=1)
    print()
    print(ascii_chart(fig))
    print(figure_csv(fig))

    umr = fig.series["UMR"]
    assert abs(umr[0] - 1.0) < 1e-9, "parity at error 0 (RUMR == UMR)"
    assert umr[-1] > umr[0], "UMR must degrade relative to RUMR"
    # The biggest jump happens when phase 2 switches on: threshold at
    # error* = N(cLat + N*nLat)/W = 20*(0.3+18)/1000 = 0.366.
    steps = [b - a for a, b in zip(umr, umr[1:])]
    jump_index = steps.index(max(steps))
    jump_error = fig.errors[jump_index + 1]
    assert jump_error >= 0.3, (
        f"phase-2 switch-on jump at error={jump_error}, expected >= 0.3 "
        "(threshold 0.366 for this configuration)"
    )
