"""The named applications of the paper's five benchmark suites.

Each entry synthesizes a trace whose structure matches the real
application's published character:

========== ========== ===========================================================
Suite      App        Modeled character
========== ========== ===========================================================
Rodinia    BFS        level-synchronous graph traversal, divergent gathers
Rodinia    NW         wavefront alignment, tapering parallelism, memory-bound
Rodinia    HOTSPOT    5-point thermal stencil
Rodinia    PATHFINDER row-wise 3-point dynamic programming with shared memory
Rodinia    GAUSSIAN   elimination with shrinking triangular work
Rodinia    SRAD       stencil + reduction (diffusion coefficients)
Rodinia    BACKPROP   streaming layer forward + weight-update reduction
Polybench  ADI        alternating row/column sweeps, streaming, memory-bound
Polybench  2MM        two chained GEMMs
Polybench  ATAX       A^T A x: two streaming matrix-vector products
Polybench  BICG       two simultaneous matrix-vector products
Polybench  GEMM       single tiled GEMM with shared-memory staging
Polybench  MVT        row- and column-major matrix-vector (one strided sweep)
Polybench  CORR       mean/std reductions then a GEMM-like correlation
Polybench  LU         three shrinking elimination kernels
Polybench  2DCONV     9-point convolution stencil
Mars       SM         string match: INT-heavy byte scanning, rare matches
Mars       WC         word count: byte scanning + atomic histogram + reduce
Tango      GRU        gated recurrent unit: GEMM + heavy SFU activations
Tango      LSTM       four-gate recurrent GEMMs + activations
Tango      ALEXNET    conv/FC layers as weight-broadcast GEMMs
Pannotia   PAGERANK   gather + rank reduction per iteration
Pannotia   SSSP       relaxation sweeps with atomics, divergent
Pannotia   COLOR      conflict detection with high divergence
========== ========== ===========================================================

Every generator is deterministic in (app, scale).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.errors import WorkloadError
from repro.frontend.trace import ApplicationTrace, KernelTrace
from repro.tracegen.base import KernelBuilder, Scale
from repro.tracegen import kernels as bodies

#: app name -> (suite, factory(scale) -> List[KernelTrace])
APPLICATIONS: Dict[str, tuple] = {}

#: Memoized :func:`make_app` results.  Generation is deterministic
#: (builder RNG seeds derive from the app name) and kernels are
#: immutable once built, so re-materializing an identical trace per
#: simulator or benchmark repetition is pure allocation cost.  Cache
#: hits return a fresh ApplicationTrace wrapper (the app object itself
#: is the mutable part: its kernels *list* can be doctored by tests).
#: Bounded FIFO so long sweeps cannot hoard memory.
_TRACE_MEMO: Dict[Tuple[str, str], ApplicationTrace] = {}
_TRACE_MEMO_LIMIT = 64


def _register(name: str, suite: str):
    def wrap(factory: Callable[[Scale], List[KernelTrace]]):
        if name in APPLICATIONS:
            raise WorkloadError(f"duplicate application {name!r}")
        APPLICATIONS[name] = (suite, factory)
        return factory

    return wrap


def app_names() -> List[str]:
    """All registered application names, in registration (figure) order."""
    return list(APPLICATIONS)


def make_app(name: str, scale="small") -> ApplicationTrace:
    """Build the named application's trace at the given scale.

    The expensive kernel generation runs once per ``(name, scale)``;
    each call returns a fresh :class:`ApplicationTrace` wrapper over the
    shared (immutable) kernel objects, so mutating one caller's
    ``app.kernels`` list cannot leak into another's.  The unmemoised
    reference is the registered factory itself:
    ``APPLICATIONS[name][1](Scale.parse(scale))``.
    """
    key = name.lower()
    if key not in APPLICATIONS:
        raise WorkloadError(
            f"unknown application {name!r}; known: {sorted(APPLICATIONS)}"
        )
    suite, factory = APPLICATIONS[key]
    parsed = Scale.parse(scale)
    memo_key = (key, parsed.value)
    app = _TRACE_MEMO.get(memo_key)
    if app is None:
        app = ApplicationTrace(key, factory(parsed), suite=suite)
        if len(_TRACE_MEMO) >= _TRACE_MEMO_LIMIT:
            _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
        _TRACE_MEMO[memo_key] = app
    # Never hand out the canonical memo entry itself — a caller mutating
    # its kernels *list* (tests do, to build poisoned inputs) must not
    # corrupt the cache.  The wrapper shares the immutable kernels.
    return ApplicationTrace(app.name, app.kernels, suite=app.suite)


def _kernel(name, blocks, warps, body, smem=0, regs=32) -> KernelTrace:
    return KernelBuilder(
        name, blocks, warps, shared_mem_bytes=smem, regs_per_thread=regs,
        seed_label=name,
    ).build(body)


# ----------------------------------------------------------------------
# Rodinia


@_register("bfs", "rodinia")
def _bfs(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 8, 16)
    warps = scale.pick(4, 8, 8)
    nodes = scale.pick(1, 2, 3)
    footprint = scale.pick(1 << 18, 1 << 22, 1 << 24)
    frontier_sizes = [max(1, blocks // 2), blocks, max(1, blocks * 2 // 3)]
    return [
        _kernel(
            f"bfs_level{level}",
            frontier,
            warps,
            bodies.graph_body(
                warps, nodes_per_warp=nodes, avg_degree=6,
                footprint_bytes=footprint, atomic_fraction=0.08,
            ),
        )
        for level, frontier in enumerate(frontier_sizes)
    ]


@_register("nw", "rodinia")
def _nw(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 9, 18)
    warps = scale.pick(4, 8, 8)
    rows = scale.pick(3, 8, 14)
    body = bodies.triangular_body(
        warps, num_blocks=blocks, base_rows=rows, row_bytes=8192, flops_per_row=1,
    )
    return [
        _kernel("nw_forward", blocks, warps, body, smem=8192),
        _kernel("nw_backward", max(1, blocks // 2), warps, body, smem=8192),
    ]


@_register("hotspot", "rodinia")
def _hotspot(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 9, 18)
    warps = scale.pick(4, 8, 12)
    rows = scale.pick(2, 5, 8)
    body = bodies.stencil_body(warps, rows_per_warp=rows, width=2048, flops_per_point=2)
    return [_kernel("hotspot_step", blocks, warps, body, smem=4096)]


@_register("pathfinder", "rodinia")
def _pathfinder(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 8, 16)
    warps = scale.pick(4, 8, 8)
    rows = scale.pick(2, 6, 10)
    body = bodies.stencil_body(
        warps, rows_per_warp=rows, width=4096,
        points=((0, -1), (0, 0), (0, 1)), flops_per_point=1,
    )
    return [_kernel("pathfinder_row", blocks, warps, body, smem=2048)]


@_register("gaussian", "rodinia")
def _gaussian(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 7, 14)
    warps = scale.pick(4, 8, 8)
    rows = scale.pick(2, 6, 10)
    steps = scale.pick(2, 3, 4)
    result = []
    for step in range(steps):
        step_blocks = max(1, blocks - step * (blocks // steps))
        body = bodies.triangular_body(
            warps, num_blocks=step_blocks, base_rows=rows, flops_per_row=4,
        )
        result.append(_kernel(f"gaussian_fan{step}", step_blocks, warps, body))
    return result


@_register("srad", "rodinia")
def _srad(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 8, 16)
    warps = scale.pick(4, 8, 8)
    return [
        _kernel(
            "srad_reduce", blocks, warps,
            bodies.reduction_body(warps, iterations=scale.pick(1, 2, 3), tree_levels=4),
            smem=4096,
        ),
        _kernel(
            "srad_diffuse", blocks, warps,
            bodies.stencil_body(
                warps, rows_per_warp=scale.pick(2, 4, 7), width=2048, flops_per_point=3,
            ),
        ),
    ]


@_register("backprop", "rodinia")
def _backprop(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 8, 16)
    warps = scale.pick(4, 8, 8)
    return [
        _kernel(
            "backprop_forward", blocks, warps,
            bodies.streaming_body(
                warps, iterations=scale.pick(3, 10, 16), loads_per_iter=2,
                flops_per_load=3, footprint_elements=1 << 18,
            ),
        ),
        _kernel(
            "backprop_adjust", blocks, warps,
            bodies.reduction_body(warps, iterations=scale.pick(1, 3, 4), tree_levels=4),
            smem=4096,
        ),
    ]


# ----------------------------------------------------------------------
# Polybench


@_register("adi", "polybench")
def _adi(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 9, 18)
    warps = scale.pick(4, 8, 8)
    rows = scale.pick(3, 9, 14)
    row_sweep = bodies.stencil_body(
        warps, rows_per_warp=rows, width=4096,
        points=((0, -1), (0, 0), (0, 1)), flops_per_point=1, region=0,
    )
    col_sweep = bodies.stencil_body(
        warps, rows_per_warp=rows, width=4096,
        points=((-1, 0), (0, 0), (1, 0)), flops_per_point=1, region=3,
    )
    return [
        _kernel("adi_row_sweep", blocks, warps, row_sweep),
        _kernel("adi_col_sweep", blocks, warps, col_sweep),
    ]


@_register("2mm", "polybench")
def _2mm(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 7, 14)
    warps = scale.pick(4, 8, 8)
    tiles = scale.pick(2, 4, 6)
    body = bodies.gemm_body(warps, k_tiles=tiles, inner=8)
    return [
        _kernel("mm2_first", blocks, warps, body, smem=8192),
        _kernel("mm2_second", blocks, warps, body, smem=8192),
    ]


@_register("atax", "polybench")
def _atax(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 8, 16)
    warps = scale.pick(4, 8, 8)
    iterations = scale.pick(3, 10, 16)
    body = bodies.streaming_body(
        warps, iterations=iterations, loads_per_iter=2, flops_per_load=2,
        footprint_elements=1 << 21,
    )
    return [
        _kernel("atax_ax", blocks, warps, body),
        _kernel("atax_aty", blocks, warps, body),
    ]


@_register("bicg", "polybench")
def _bicg(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 8, 16)
    warps = scale.pick(4, 8, 8)
    iterations = scale.pick(3, 10, 16)
    body = bodies.streaming_body(
        warps, iterations=iterations, loads_per_iter=2, flops_per_load=2,
        footprint_elements=1 << 21, store_every=2,
    )
    return [_kernel("bicg_kernel", blocks, warps, body)]


@_register("gemm", "polybench")
def _gemm(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 8, 16)
    warps = scale.pick(4, 8, 12)
    tiles = scale.pick(2, 5, 8)
    body = bodies.gemm_body(warps, k_tiles=tiles, inner=10)
    return [_kernel("gemm_tiled", blocks, warps, body, smem=8192)]


@_register("mvt", "polybench")
def _mvt(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 8, 16)
    warps = scale.pick(4, 8, 8)
    iterations = scale.pick(3, 9, 14)
    row_body = bodies.streaming_body(
        warps, iterations=iterations, loads_per_iter=2, flops_per_load=2,
        footprint_elements=1 << 21,
    )
    col_body = bodies.gemm_body(
        warps, k_tiles=scale.pick(2, 4, 6), inner=4, use_shared=False, b_strided=True,
    )
    return [
        _kernel("mvt_x1", blocks, warps, row_body),
        _kernel("mvt_x2", blocks, warps, col_body),
    ]


@_register("corr", "polybench")
def _corr(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 7, 14)
    warps = scale.pick(4, 8, 8)
    return [
        _kernel(
            "corr_mean", blocks, warps,
            bodies.reduction_body(warps, iterations=scale.pick(1, 2, 3), tree_levels=5),
            smem=4096,
        ),
        _kernel(
            "corr_matrix", blocks, warps,
            bodies.gemm_body(warps, k_tiles=scale.pick(2, 4, 6), inner=8),
            smem=8192,
        ),
    ]


@_register("lu", "polybench")
def _lu(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 7, 14)
    warps = scale.pick(4, 8, 8)
    rows = scale.pick(2, 6, 10)
    steps = scale.pick(2, 3, 4)
    result = []
    for step in range(steps):
        step_blocks = max(1, blocks >> step)
        body = bodies.triangular_body(
            warps, num_blocks=step_blocks, base_rows=rows, flops_per_row=3,
            row_bytes=8192,
        )
        result.append(_kernel(f"lu_step{step}", step_blocks, warps, body))
    return result


@_register("2dconv", "polybench")
def _2dconv(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 9, 18)
    warps = scale.pick(4, 8, 12)
    points = tuple((r, c) for r in (-1, 0, 1) for c in (-1, 0, 1))
    body = bodies.stencil_body(
        warps, rows_per_warp=scale.pick(2, 4, 6), width=2048,
        points=points, flops_per_point=1,
    )
    return [_kernel("conv2d", blocks, warps, body)]


# ----------------------------------------------------------------------
# Mars


@_register("sm", "mars")
def _sm(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 9, 18)
    warps = scale.pick(4, 8, 12)
    body = bodies.text_body(
        warps, iterations=scale.pick(3, 10, 18), compares_per_load=6,
        match_fraction=0.1,
    )
    return [_kernel("string_match", blocks, warps, body)]


@_register("wc", "mars")
def _wc(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 8, 16)
    warps = scale.pick(4, 8, 8)
    return [
        _kernel(
            "wc_map", blocks, warps,
            bodies.text_body(
                warps, iterations=scale.pick(3, 8, 14), compares_per_load=4,
                match_fraction=0.35,
            ),
        ),
        _kernel(
            "wc_reduce", max(1, blocks // 2), warps,
            bodies.reduction_body(warps, iterations=scale.pick(1, 2, 3), tree_levels=4),
            smem=4096,
        ),
    ]


# ----------------------------------------------------------------------
# Tango


@_register("gru", "tango")
def _gru(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 7, 14)
    warps = scale.pick(4, 8, 8)
    tiles = scale.pick(2, 5, 8)
    gates = bodies.dnn_body(
        warps, k_tiles=tiles, inner=6, activation="MUFU.EX2", activations_per_tile=3,
    )
    state = bodies.dnn_body(
        warps, k_tiles=max(1, tiles // 2), inner=4, activation="MUFU.RCP",
        activations_per_tile=2,
    )
    return [
        _kernel("gru_gates", blocks, warps, gates),
        _kernel("gru_state", blocks, warps, state),
    ]


@_register("lstm", "tango")
def _lstm(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 7, 14)
    warps = scale.pick(4, 8, 8)
    tiles = scale.pick(2, 6, 10)
    body = bodies.dnn_body(
        warps, k_tiles=tiles, inner=6, activation="MUFU.EX2", activations_per_tile=4,
    )
    return [
        _kernel("lstm_gates", blocks, warps, body),
        _kernel("lstm_cell", max(1, blocks // 2), warps, body),
    ]


@_register("alexnet", "tango")
def _alexnet(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 8, 16)
    warps = scale.pick(4, 8, 12)
    conv = bodies.gemm_body(
        warps, k_tiles=scale.pick(2, 4, 7), inner=8, b_strided=False,
        use_shared=True,
    )
    fc = bodies.dnn_body(
        warps, k_tiles=scale.pick(2, 4, 6), inner=6, activation="MUFU.RCP",
        activations_per_tile=1,
    )
    return [
        _kernel("alexnet_conv", blocks, warps, conv, smem=8192),
        _kernel("alexnet_fc", max(1, blocks // 2), warps, fc),
    ]


# ----------------------------------------------------------------------
# Pannotia


@_register("pagerank", "pannotia")
def _pagerank(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 8, 16)
    warps = scale.pick(4, 8, 8)
    return [
        _kernel(
            "pagerank_gather", blocks, warps,
            bodies.graph_body(
                warps, nodes_per_warp=scale.pick(1, 2, 3), avg_degree=7,
                footprint_bytes=scale.pick(1 << 18, 1 << 22, 1 << 24),
                atomic_fraction=0.05,
            ),
        ),
        _kernel(
            "pagerank_rank", max(1, blocks // 2), warps,
            bodies.reduction_body(warps, iterations=scale.pick(1, 2, 3), tree_levels=4),
            smem=4096,
        ),
    ]


@_register("sssp", "pannotia")
def _sssp(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 8, 16)
    warps = scale.pick(4, 8, 8)
    body = bodies.graph_body(
        warps, nodes_per_warp=scale.pick(1, 2, 3), avg_degree=6,
        footprint_bytes=scale.pick(1 << 18, 1 << 22, 1 << 24),
        atomic_fraction=0.2,
    )
    return [
        _kernel("sssp_relax1", blocks, warps, body),
        _kernel("sssp_relax2", max(1, blocks * 2 // 3), warps, body),
    ]


@_register("color", "pannotia")
def _color(scale: Scale) -> List[KernelTrace]:
    blocks = scale.pick(3, 8, 16)
    warps = scale.pick(4, 8, 8)
    body = bodies.graph_body(
        warps, nodes_per_warp=scale.pick(1, 2, 3), avg_degree=5,
        footprint_bytes=scale.pick(1 << 17, 1 << 21, 1 << 23),
        atomic_fraction=0.1, min_active=1,
    )
    return [_kernel("color_detect", blocks, warps, body)]
