"""The benchmark's workloads: inputs built from a seed, the operations of one
round, and the checks on each operation's output.

An operation is ``Op(name, run, check)``.  ``run(ctx)`` calls anharm's public
API and returns its output; ``ctx`` carries state between the operations of
one round (the ideal model, the Heisenberg solution the CLI solve is
compared with).  ``check(out, ctx)`` returns ``Check`` tuples; an operation
fails when it raises or when any of its checks is above its gate.  Checks
compare against closed forms, conservation laws and refinement properties
the method must have, never against stored output.

A check's ``kind`` says what sets its residual: ``"discretization"`` (the
grid; these make up ``gate_margin``), ``"rounding"`` (exact up to
floating-point error) or ``"exact"`` (must hold bit for bit); a
``"property"`` check (a refinement ratio) gates but is no residual.

The sizes are scaled from the acceptance criteria so that one round takes
about 1 to 5 s; README.md gives each configuration and why.
"""

import contextlib
import io
import json
import os
from collections import namedtuple

import numpy as np

from anharm import cli, harmonic, ideals, operators
from anharm.testfuncs import (
    Axis, GridFunction, gaussian, grid_mesh, grid_nodes,
)

Op = namedtuple("Op", "name run check")
Check = namedtuple("Check", "name value gate kind")


def _gauss_mass(widths):
    """∫ exp(-½ Σ wᵢ xᵢ²) dx = Π √(2π/wᵢ)."""
    return float(np.prod(np.sqrt(2.0 * np.pi / np.asarray(widths))))


def _rel(a, b):
    return float(abs(a - b) / abs(b))


# ── ideals: the Γ-correspondence of left ideals of L¹(N) ────────────────────

IDEAL_GEN_WIDTHS = (1.0, 0.4, 0.9)


def ideals_ops(seed):
    """Dictionary on lattice convolutions, Gram pulled back through Γ,
    closure residuals on both sides, and ∗_c/∗ intertwining at 20 points.

    The dictionary grid is 8×16×8 (``anharm verify ideals`` uses 16³);
    the intertwining keeps the verify axes, 16³.
    """
    rng = np.random.default_rng(seed)
    gens = [gaussian([0.2, 0.0, -0.1], IDEAL_GEN_WIDTHS)]
    probes = [gaussian(rng.uniform(-0.3, 0.3, 3), [4.0] * 3)
              for _ in range(2)]
    gating = gaussian(rng.uniform(-0.1, 0.1, 3), [3.5] * 3)
    psi = gaussian(rng.uniform(-0.2, 0.2, 3), [1.3, 0.5, 1.1])
    pts = rng.uniform(-1.0, 1.0, (20, 3))
    ax_x, ax_z, ax_y = Axis(0, 8.0, 8), Axis(0, 9.6, 16), Axis(0, 8.0, 8)
    axes_n, axes_m = (ax_x, ax_z, ax_y), (ax_z, ax_y, ax_x)
    ix, iz, iy = Axis(0, 8.0, 16), Axis(0, 9.6, 16), Axis(0, 8.0, 16)
    int_n, int_m = (ix, iz, iy), (iz, iy, ix)

    def model(ctx):
        ctx["model"] = ideals.ideal_model(gens, probes, 3, axes_n, axes_m)
        return ctx["model"].gram, ctx["model"].gram_m

    def check_model(out, ctx):
        # Left-invariance of Haar measure: ∫ p∗g = ∫p · ∫g.  The convolution
        # quadratures p over the node grid, so the prediction uses that sum.
        m = ctx["model"]
        mass_g = _gauss_mass(IDEAL_GEN_WIDTHS)
        nodes = grid_mesh(axes_n)
        checks = []
        for i, p in enumerate(probes):
            want = complex(np.sum(p(nodes))) * m.cell("N") * mass_g
            for side in ("N", "M"):
                got = complex(np.sum(m.samples(side)[len(gens) + i]))
                checks.append(Check(f"mass_{side}{i}",
                                    _rel(got * m.cell(side), want), 5e-2,
                                    "discretization"))
        return checks

    def transport(ctx):
        return ideals.transport_gram_deviation(ctx["model"])

    def correspondence(ctx):
        line = ideals.correspondence_check(ctx["model"], [gating])[0]
        return line.n_residual, line.m_residual, line.difference

    def intertwine(ctx):
        return ideals.gamma_intertwine_residual(psi, gens[0], 3, pts,
                                                int_n, int_m)

    return [
        Op("ideal_model", model, check_model),
        Op("transport_gram", transport, lambda out, ctx: [
            Check("gram_transport_deviation", out, 1e-6, "discretization")]),
        Op("correspondence", correspondence, lambda out, ctx: [
            Check("closure_residual_difference", out[2], 1e-3,
                  "discretization")]),
        Op("intertwine", intertwine, lambda out, ctx: [
            Check("intertwine_rel_residual", out[0] / out[1], 1e-3,
                  "discretization")]),
    ]


# ── reduction: group convolution = ∗_c convolution of the extension ─────────

def _pair(rng, dim, widths, k, pt_scale, npts):
    phi = gaussian(rng.uniform(-0.3, 0.3, dim), widths)
    f = gaussian(rng.uniform(-0.3, 0.3, dim), widths)
    pts = [(rng.uniform(-pt_scale, pt_scale, dim),
            rng.uniform(-pt_scale, pt_scale, k)) for _ in range(npts)]
    return phi, f, pts


def _refinement(case, m, phi, f, pts, coarse, fine):
    def run(ctx):
        r0, s0 = harmonic.theorem31_residual(phi, f, case, m, pts, coarse,
                                             coarse)
        r1, s1 = harmonic.theorem31_residual(phi, f, case, m, pts, fine, fine)
        return r0, s0, r1, s1

    def check(out, ctx):
        r0, s0, r1, _ = out
        return [Check("coarse_rel_residual", r0 / s0, 1e-3, "discretization"),
                # halving the step must cut the residual at least fourfold
                Check("refinement_ratio", r1 / r0, 0.25, "property")]

    return run, check


def _residual(case, m, phi, f, pts, axes):
    def run(ctx):
        return harmonic.theorem31_residual(phi, f, case, m, pts, axes, axes)

    return run, lambda out, ctx: [
        Check("rel_residual", out[0] / out[1], 1e-3, "discretization")]


K1_COARSE, K1_FINE = [Axis(0.0, 6.4, 16)] * 3, [Axis(0.0, 6.4, 32)] * 3
H3_AXES = [Axis(0.0, 4.0, 32)] * 3 + [Axis(0.0, 1.6, 8)] * 2


def _h2_axes(p):
    return [Axis(0.0, 6.4, p), Axis(0.0, 3.2, p // 2)]


def reduction_ops(seed):
    """theorem31_residual with every point off the lattice.

    Criterion 05's own draws (its rng seed 7) are run as pinned: K1 m=3 at
    16³/32³, H m=2 at 64×32/128×64, and H m=3 at 32³×8² on the first of its
    20 points.  On draws from ``seed`` the K1 case runs at the same grids and
    H m=2 one halving finer (128×64/256×128): at criterion 05's H m=2 grid,
    and for H m=3, the 1e-3 gate fails on some seeds (README.md).
    """
    rng = np.random.default_rng(7)
    k1_pinned = _pair(rng, 3, [1.0] * 3, 1, 0.4, 20)
    h2_pinned = _pair(rng, 2, [1.0, 3.0], 1, 0.4, 20)
    phi, f, pts = _pair(np.random.default_rng(7), 5, [1.0] * 3 + [5.0] * 2,
                        2, 0.3, 20)
    rng_k, rng_h = (np.random.default_rng(s) for s in
                    np.random.SeedSequence(seed).spawn(2))
    k1 = _pair(rng_k, 3, [1.0] * 3, 1, 0.4, 20)
    h2 = _pair(rng_h, 2, [1.0, 3.0], 1, 0.4, 20)
    return [
        Op("pinned_K1_m3", *_refinement("K1", 3, *k1_pinned, K1_COARSE,
                                        K1_FINE)),
        Op("pinned_H_m2", *_refinement("H", 2, *h2_pinned, _h2_axes(64),
                                       _h2_axes(128))),
        Op("pinned_H_m3", *_residual("H", 3, phi, f, pts[:1], H3_AXES)),
        Op("K1_m3", *_refinement("K1", 3, *k1, K1_COARSE, K1_FINE)),
        Op("H_m2", *_refinement("H", 2, *h2, _h2_axes(128), _h2_axes(256))),
    ]


# ── spectral: FFT, symbol division, Γ-twist and CSV output ──────────────────

def _E(dim, *words, coefs):
    return operators.EnvelopingElement(dim, tuple(zip(coefs, words)))


def spectral_ops(seed, out_dir):
    """Plancherel on N (64³) and S (16⁵), discrete Parseval, an FFT round
    trip (64³), fundamental solutions with weak residuals (1-D at P=4096,
    Heisenberg sublaplacian − 1 at P=16 and 32, S m=2 at 256×64), and
    ``anharm solve`` at grid 32 writing its CSV, which is read back and
    compared with the P=32 Heisenberg solution."""
    rng = np.random.default_rng(seed)
    w_n = np.array([1.0, 1.2, 0.9])
    f_n = gaussian(rng.uniform(-0.2, 0.2, 3), w_n)
    axes_n = [Axis(0.0, 10.0, 64)] * 3
    w_s = np.array([1.0, 1.1, 0.9, 1.2, 1.0])
    f_s = gaussian(rng.uniform(-0.1, 0.1, 5), w_s)
    axes_s = [Axis(0.0, 6.0, 16)] * 5
    noise = GridFunction((Axis(0.0, 3.0, 16),) * 2,
                         rng.normal(size=(16, 16))
                         + 1j * rng.normal(size=(16, 16)))
    cube = GridFunction((Axis(0.0, 4.0, 64),) * 3,
                        rng.normal(size=(64,) * 3)
                        + 1j * rng.normal(size=(64,) * 3))
    u1 = _E(1, (0, 0), (), coefs=[1.0, -1.0])
    axis_1d = [Axis(0.0, 20.0, 4096)]
    # the operator the CLI solve below parses from "E1*E1+E3*E3-1"
    u_h = _E(3, (0, 0), (2, 2), (), coefs=[1.0, 1.0, -1.0])
    phis_h = [gaussian(rng.uniform(-0.3, 0.3, 3), rng.uniform(1.0, 2.0, 3))
              for _ in range(5)]
    u_s = _E(2, (0, 0), (), coefs=[1.0, -1.0])
    axes_s2 = [Axis(0.0, 10.0, 256), Axis(0.0, 3.0, 64)]
    phis_s = [gaussian(rng.uniform(-0.2, 0.2, 2), [1.0, 3.0])
              for _ in range(3)]
    csv_path = os.path.join(out_dir, f"solve-{os.getpid()}.csv")
    argv = ["solve", "fundamental-solution", "--operator", "E1*E1+E3*E3-1",
            "--group", "N", "--m", "3", "--grid", "32", "--halfwidth", "6",
            "--output", csv_path]

    def plancherel(f, axes, widths, gate_parseval, gate_mass, mass_kind):
        def run(ctx):
            rep = harmonic.plancherel_check(f, axes)
            return rep.time_norm_sq, rep.freq_norm_sq, rep.rel_err

        def check(out, ctx):
            # ∫ exp(-Σ wᵢ(xᵢ-μᵢ)²) dx = Π √(π/wᵢ)
            closed = float(np.prod(np.sqrt(np.pi / widths)))
            return [Check("parseval_rel_err", out[2], gate_parseval,
                          "rounding"),
                    Check("norm_vs_closed_form", _rel(out[0], closed),
                          gate_mass, mass_kind)]

        return run, check

    def parseval(ctx):
        return harmonic.plancherel_check(noise, noise.axes).rel_err

    def round_trip(ctx):
        back = harmonic.fourier_inverse(harmonic.fourier_forward(cube),
                                        cube.axes)
        return back.samples

    def check_round_trip(out, ctx):
        err = np.max(np.abs(out - cube.samples)) / np.max(np.abs(cube.samples))
        return [Check("fft_round_trip_rel_err", float(err), 1e-12,
                      "rounding")]

    def fs_1d(ctx):
        return operators.fundamental_solution_abelian(u1, axis_1d,
                                                      1e-8).values.samples

    def check_1d(out, ctx):
        x = grid_nodes(axis_1d[0])
        err = float(np.max(np.abs(out + 0.5 * np.exp(-np.abs(x)))))
        return [Check("max_err_vs_closed_form", err, 1e-3, "discretization")]

    def weak(name, u, group, m, axes, phis, gate):
        def run(ctx):
            sol = operators.fundamental_solution_group(u, group, m, axes,
                                                       1e-8)
            ctx[name] = sol.values.samples
            return sol.values.samples, operators.weak_residuals(
                sol, u, group, m, phis)

        def check(out, ctx):
            return [Check("max_weak_residual", max(out[1]), gate,
                          "discretization")]

        return run, check

    def solve(ctx):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check_solve(out, ctx):
        code, summary = out
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        want = ctx["heisenberg_P32"]
        axes = [Axis(0.0, 6.0, 32)] * 3
        got = (data[:, 3] + 1j * data[:, 4]).reshape(want.shape)
        coords = grid_mesh(axes).reshape(-1, 3)
        return [Check("exit_code", float(code != 0), 0.0, "exact"),
                Check("summary_grid",
                      float(json.loads(summary)["grid"] != 32), 0.0,
                      "exact"),
                Check("csv_coords_differ",
                      float(np.max(np.abs(data[:, :3] - coords))), 0.0,
                      "exact"),
                Check("csv_values_differ",
                      float(np.max(np.abs(got - want))), 0.0, "exact")]

    return [
        Op("plancherel_N", *plancherel(f_n, axes_n, w_n, 1e-8, 1e-8,
                                       "rounding")),
        Op("plancherel_S", *plancherel(f_s, axes_s, w_s, 1e-6, 1e-5,
                                       "discretization")),
        Op("parseval", parseval, lambda out, ctx: [
            Check("parseval_rel_err", out, 1e-12, "rounding")]),
        Op("fft_round_trip", round_trip, check_round_trip),
        Op("fundamental_1d", fs_1d, check_1d),
        Op("heisenberg_P16", *weak("heisenberg_P16", u_h, "N", 3,
                                   [Axis(0.0, 6.0, 16)] * 3, phis_h, 5e-2)),
        Op("heisenberg_P32", *weak("heisenberg_P32", u_h, "N", 3,
                                   [Axis(0.0, 6.0, 32)] * 3, phis_h, 5e-2)),
        Op("s_m2", *weak("s_m2", u_s, "S", 2, axes_s2, phis_s, 1e-3)),
        Op("solve_csv", solve, check_solve),
    ]


def build(workload, seed, out_dir):
    """The operations of one round of ``workload`` on inputs from ``seed``."""
    if workload == "ideals":
        return ideals_ops(seed)
    if workload == "reduction":
        return reduction_ops(seed)
    if workload == "spectral":
        return spectral_ops(seed, out_dir)
    raise ValueError(f"unknown workload {workload!r}")
