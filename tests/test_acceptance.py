"""Acceptance gate: one test per numbered criterion, each printing a
single summary line and enforcing the published tolerances and runtime
ceilings as stated.

One sub-check is a known deviation and fails honestly rather than run
against a loosened tolerance: the last solver benchmark column (pitch
0.005 m, prior [0.018, 199] m). Its prior-averaged RMSE is 1.35e-5 m /
1.89e-4 against the reference 2.19e-5 m / 7.29e-4 (-38% / -74%). The
reference digits match only the unconverged 2000-row linspace grid
(2.19e-5 / 7.37e-4 at 2000 by 2000; 6000 rows by 200 tilts already give
1.62e-5 / 4.31e-4), and beyond about 50 m the distance error in that
column is float64 rounding of k*r in the forward model rather than
solver bias. Which grid or configuration produced the reference cannot
be settled from the package documents.
"""

import inspect
import math
import time
from statistics import NormalDist

import numpy as np

from nfepm import (ArrayGeometry, AxialPose, GeneralPose, UniformPrior, Wave,
                   ecrb, ecrb_ao, monte_carlo_mse, zzb_ao_t, zzb_z)
from nfepm.channel import (RERR_KINDS, axis_channel, nf_channel, rerr,
                           scaling_factor, vector_field)
from nfepm.ecrb import fim_closed
from nfepm.geometry import Region
from nfepm.solver import rmse_grids
from nfepm.zzb import ZZBGrid, mu_L_ao

from oracles import (HypothesisPair, ambiguity_function, channel_deriv_t,
                     channel_deriv_z, fim_quadrature, integrate)
from scenarios import (SOLVER_BENCHMARK, THRESHOLD_GEOM, THRESHOLD_PRIOR,
                       THRESHOLD_WAVE, AO_GEOM, AO_PRIOR, AO_WAVE,
                       benchmark_setup)

# Coarse bound grid for the sweep criteria; the default grid is reserved
# for the asymptote check where the 1% tolerance is tightest. On the
# threshold config it agrees with the default grid within 0.5% at the
# criterion-4 anchors (prior-region SNR, 50 dB, 60 dB). It is not
# converged inside the 30-37 dB threshold band: at 34 dB zzb_z/ecrb_z is
# 1.24 on this grid and 3.83 on the default grid, so no check reads the
# bound there.
COARSE_GRID = ZZBGrid(48, 48, 48)

# Detection error that every hypothesis pair must keep for the bounds to
# sit within 5% of the prior variances (0.95 of the coin-flip 1/2).
_PLATEAU_P_MIN = 0.475


def _emit(num, fails, elapsed, ceiling=None, extra=""):
    ok = not fails
    detail = extra if ok else "; ".join(fails)
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    line += f" [{elapsed:.1f}s]"
    print(line)
    if ceiling is not None:
        assert elapsed < ceiling, f"runtime {elapsed:.1f}s over {ceiling}s"
    assert ok, detail


def _db(snr_db):
    return 10.0 ** (snr_db / 10.0)


def _prior_rmse(region, prior, geom, wave):
    # RMSE averaged over the uniform prior box: rmse_grids on 64 geometric
    # sub-boxes of [z_min, z_max], 100 distances by 200 tilts each, with
    # mean squares weighted by sub-box width. The solver bias grows like
    # 1/z (distance) and 1/z^2 (tilt) towards z_min, which a single
    # linspace grid over a wide prior samples too coarsely; 128 sub-boxes
    # move columns 2-7 by under 0.1%.
    edges = np.geomspace(prior.z_min, prior.z_max, 65)
    ms_z = ms_t = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        rz, rt = rmse_grids(region, UniformPrior(lo, hi), geom, wave, 100, 200,
                            (None,))[0]
        ms_z += (hi - lo) * rz ** 2
        ms_t += (hi - lo) * rt ** 2
    span = edges[-1] - edges[0]
    return math.sqrt(ms_z / span), math.sqrt(ms_t / span)


def _prior_region_snr(prior, geom, wave):
    """SNR at or below which both bounds provably stay within 5% of the
    prior variances.

    mu = snr * pitch * int |h1 - h0|^2 dy, so Minkowski's inequality gives
    mu <= 4 * snr * E_max with E = pitch * int_0^D |h|^2 dy maximized over
    the prior box. At mu <= mu0 = 2 * Qinv(0.475)^2 every pair has
    P_min = Q(sqrt(mu/2)) >= 0.475, and the bound, the prior variance
    weighted by 2 * P_min <= 1, is at least 95% of the prior variance.
    """
    def energy(t):
        return geom.pitch * integrate(
            lambda y: abs(axis_channel(prior.z_min, t, y, wave)) ** 2,
            0.0, geom.aperture)

    # y = z*u turns E into (1/z) int_0^{D/z} (u t + s)^2 / (1 + u^2)^2.5 du
    # with s = sqrt(1 - t^2), which falls with z: the maximum sits at
    # z_min. With t = sin(phi), E = a + b cos(2 phi) + c sin(2 phi);
    # three tilts fix (a, b, c) and a + hypot(b, c) bounds E from above.
    e0, e1, e2 = energy(0.0), energy(0.5), energy(math.sqrt(3.0) / 2.0)
    b = e1 - e2
    a = e0 - b
    c = (e1 - a - 0.5 * b) * 2.0 / math.sqrt(3.0)
    e_max = a + math.hypot(b, c)
    mu0 = 2.0 * NormalDist().inv_cdf(1.0 - _PLATEAU_P_MIN) ** 2
    return mu0 / (4.0 * e_max)


def test_criterion_01_solver_benchmark():
    # nine reference columns, RMSE averaged over the prior box: reactive
    # columns exact, the rest within 20% of the recorded values
    t0 = time.perf_counter()
    fails = []
    for i, col in enumerate(SOLVER_BENCHMARK):
        region, wave, geom, prior = benchmark_setup(col)
        ref_z, ref_t = col[6], col[7]
        rz, rt = _prior_rmse(region, prior, geom, wave)
        if region is Region.CASE1:
            if not (rz < 1e-9 and rt < 1e-9):
                fails.append(f"col {i}: reactive rmse ({rz:.2e}, {rt:.2e})")
        else:
            dev_z = rz / ref_z - 1.0
            dev_t = rt / ref_t - 1.0
            if abs(dev_z) > 0.20 or abs(dev_t) > 0.20:
                fails.append(f"col {i}: prior-averaged z {rz:.3e} "
                             f"({dev_z:+.0%} of {ref_z:.2e}), "
                             f"t {rt:.3e} ({dev_t:+.0%})")
    _emit(1, fails, time.perf_counter() - t0, ceiling=120.0,
          extra="9 columns within tolerance")


def test_criterion_02_mismatch_diagnostics():
    # wrong-regime solving: the reactive solver on phase-ambiguity data
    # must go complex; the phase-ambiguity solver on adjacent-element
    # data stays real and reaches 1e2 m on the wide short-wave columns
    t0 = time.perf_counter()
    fails = []
    for i in (2, 3, 4):
        region, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[i])
        rz, rt = rmse_grids(region, prior, geom, wave, 200, 200,
                            (Region.CASE1,))[0]
        if rz.imag == 0.0 or rt.imag == 0.0:
            fails.append(f"col {i}: expected complex rmse, got ({rz}, {rt})")
    for i in (5, 6, 7, 8):
        region, wave, geom, prior = benchmark_setup(SOLVER_BENCHMARK[i])
        rz, rt = rmse_grids(region, prior, geom, wave, 200, 200,
                            (Region.CASE2_PA,))[0]
        if rz.imag != 0.0 or rt.imag != 0.0:
            fails.append(f"col {i}: expected real rmse, got ({rz}, {rt})")
        if i in (7, 8) and rz.real < 1e2:
            fails.append(f"col {i}: rmse_z {rz.real:.3e} below 1e2 m")
    _emit(2, fails, time.perf_counter() - t0,
          extra="complex on reactive-mismatch, >=1e2 m on period-mismatch")


def test_criterion_03_low_snr_asymptotes():
    # at -60 dB both bounds must sit on the prior variances within 1%
    t0 = time.perf_counter()
    snr = _db(-60.0)
    bz = zzb_z(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM, THRESHOLD_WAVE)
    bt = zzb_ao_t(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM)
    span = THRESHOLD_PRIOR.z_max - THRESHOLD_PRIOR.z_min
    fails = []
    if abs(bz - span ** 2 / 12.0) > 0.01 * span ** 2 / 12.0:
        fails.append(f"zzb_z {bz:.6f} vs {span ** 2 / 12.0:.6f}")
    if abs(bt - 1.0 / 12.0) > 0.01 / 12.0:
        fails.append(f"zzb_t {bt:.6f} vs {1.0 / 12.0:.6f}")
    _emit(3, fails, time.perf_counter() - t0, ceiling=60.0,
          extra=f"zzb_z={bz:.6f}, zzb_t={bt:.6f}")


def test_criterion_04_threshold_structure():
    # prior region: bounds within 5% of the prior variances at SNR* and
    # SNR* - 10 dB, SNR* being where the model guarantees it (about
    # -11.3 dB here); asymptotic region: bounds within 15% of the
    # expected CRBs at 50/60 dB
    t0 = time.perf_counter()
    span = THRESHOLD_PRIOR.z_max - THRESHOLD_PRIOR.z_min
    var_z, var_t = span ** 2 / 12.0, 1.0 / 12.0
    db_star = 10.0 * math.log10(
        _prior_region_snr(THRESHOLD_PRIOR, THRESHOLD_GEOM, THRESHOLD_WAVE))
    fails = []
    for db in (db_star, db_star - 10.0):
        snr = _db(db)
        bz = zzb_z(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM, THRESHOLD_WAVE,
                   COARSE_GRID)
        bt = zzb_ao_t(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM, COARSE_GRID)
        if abs(bz / var_z - 1.0) > 0.05:
            fails.append(f"{db:.1f} dB: zzb_z/var = {bz / var_z:.4f}")
        if abs(bt / var_t - 1.0) > 0.05:
            fails.append(f"{db:.1f} dB: zzb_t/var = {bt / var_t:.4f}")
    for db in (50.0, 60.0):
        snr = _db(db)
        bz = zzb_z(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM, THRESHOLD_WAVE,
                   COARSE_GRID)
        bt = zzb_ao_t(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM, COARSE_GRID)
        ez, et = ecrb(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM, THRESHOLD_WAVE)
        if abs(bz / ez - 1.0) > 0.15:
            fails.append(f"{db:.0f} dB: zzb_z/ecrb_z = {bz / ez:.4f}")
        if abs(bt / et - 1.0) > 0.15:
            fails.append(f"{db:.0f} dB: zzb_t/ecrb_t = {bt / et:.4f}")
    _emit(4, fails, time.perf_counter() - t0, ceiling=600.0,
          extra=f"prior plateau from {db_star:.1f} dB down, "
                "asymptotic agreement")


def test_criterion_05_scaling_laws():
    # exact inverse scaling in snr and pitch; wavelength enters the
    # distance bound quadratically and the tilt bound not measurably
    t0 = time.perf_counter()
    prior = UniformPrior(5.0, 6.0)
    geom = ArrayGeometry(5.0, 0.1)
    wave = Wave(0.1)
    snr = 1e3
    base = ecrb(prior, snr, geom, wave)
    fails = []
    # the scaling is analytic; the tolerance only absorbs the last-ulp
    # reordering of the float multiplications
    snr10 = ecrb(prior, 10.0 * snr, geom, wave)
    if any(abs(got / (want / 10.0) - 1.0) > 1e-12
           for got, want in zip(snr10, base)):
        fails.append(f"snr x10 gave {snr10} vs {base}")
    pitch5 = ecrb(prior, snr, ArrayGeometry(5.0, 0.5), wave)
    if any(abs(got / (want / 5.0) - 1.0) > 1e-12
           for got, want in zip(pitch5, base)):
        fails.append(f"pitch x5 gave {pitch5} vs {base}")
    lam10 = ecrb(prior, snr, geom, Wave(0.01))
    ratio_z = base[0] / lam10[0]
    if abs(ratio_z / 100.0 - 1.0) > 0.10:
        fails.append(f"wavelength /10 scaled ecrb_z by {ratio_z:.2f}")
    drift_t = abs(lam10[1] / base[1] - 1.0)
    if drift_t > 1e-3:
        fails.append(f"wavelength /10 moved ecrb_t by {drift_t:.2e}")
    _emit(5, fails, time.perf_counter() - t0, ceiling=60.0,
          extra=f"ecrb_z ratio {ratio_z:.4f}, ecrb_t drift {drift_t:.1e}")


def test_criterion_06_information_oracles():
    # closed-form information vs adaptive quadrature over 1e3 random
    # configurations, and channel derivatives vs central differences
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    fails = []
    worst = 0.0
    for _ in range(1000):
        lam = 10.0 ** rng.uniform(-2, 0)
        aperture = lam * 10.0 ** rng.uniform(0.5, 2)
        geom = ArrayGeometry(aperture, aperture / 16.0)
        pose = AxialPose(10.0 ** rng.uniform(-0.5, 1.5),
                         rng.uniform(0.0, 0.95))
        snr = 10.0 ** rng.uniform(0, 4)
        closed = fim_closed(pose, snr, geom, Wave(lam))
        oracle = fim_quadrature(pose, snr, geom, Wave(lam))
        scale = math.sqrt(oracle.f_zz * oracle.f_tt)
        for got, want in ((closed.f_zz, oracle.f_zz),
                          (closed.f_tt, oracle.f_tt),
                          (closed.f_zt, oracle.f_zt)):
            err = abs(got - want) / max(abs(want), 1e-10 * scale)
            worst = max(worst, err)
    if worst > 1e-8:
        fails.append(f"information mismatch {worst:.2e}")
    step = 1e-6
    worst_fd = 0.0
    wave = Wave(0.2)
    for _ in range(300):
        z = 10.0 ** rng.uniform(-0.5, 1.0)
        t = rng.uniform(0.0, 0.9)
        y = rng.uniform(0.0, 3.0)
        fd_z = (axis_channel(z + step, t, y, wave)
                - axis_channel(z - step, t, y, wave)) / (2 * step)
        got_z = channel_deriv_z(AxialPose(z, t), y, wave)
        worst_fd = max(worst_fd, abs(got_z - fd_z) / max(1.0, abs(got_z)))
        fd_t = (axis_channel(z, t + step, y, wave)
                - axis_channel(z, t - step, y, wave)) / (2 * step)
        got_t = channel_deriv_t(AxialPose(z, t), y, wave)
        worst_fd = max(worst_fd, abs(got_t - fd_t) / max(1.0, abs(got_t)))
    if worst_fd > 1e-5:
        fails.append(f"derivative mismatch {worst_fd:.2e}")
    _emit(6, fails, time.perf_counter() - t0, ceiling=60.0,
          extra=f"worst info err {worst:.1e}, worst deriv err {worst_fd:.1e}")


def test_criterion_07_attitude_only_consistency():
    # tilt-only statistic against its quadrature oracle, ordering of the
    # joint expected CRB above the tilt-only one, a small gap on the coarse
    # pitch config, and wavelength invariance of the tilt-only bounds,
    # which take no wave (the joint tilt ZZB is the tilt-only one)
    t0 = time.perf_counter()
    fails = []
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        z = 10.0 ** rng.uniform(-0.5, 1.5)
        th = rng.uniform(0.0, 0.9)
        dt = rng.uniform(0.0, 1.0 - th)
        snr = 10.0 ** rng.uniform(0, 4)
        aperture = z * 10.0 ** rng.uniform(-0.5, 1.0)
        geom = ArrayGeometry(aperture, aperture / 8.0)
        ft = math.sqrt(1.0 - th * th) - math.sqrt(1.0 - (th + dt) ** 2)

        def integrand(y):
            return z * (y * dt - z * ft) ** 2 / np.hypot(y, z) ** 5

        oracle = snr * geom.pitch * integrate(integrand, 0.0, geom.aperture)
        got = mu_L_ao(z, th, dt, snr, geom)
        worst = max(worst, abs(got - oracle) / max(abs(oracle), 1e-300))
    if worst > 1e-8:
        fails.append(f"tilt-only statistic mismatch {worst:.2e}")

    worst_ecrb_gap = 0.0
    for db in range(0, 61, 10):
        snr = _db(float(db))
        et = ecrb(AO_PRIOR, snr, AO_GEOM, AO_WAVE)[1]
        eao = ecrb_ao(AO_PRIOR, snr, AO_GEOM)
        if et < eao * (1.0 - 1e-12):
            fails.append(f"{db} dB: ecrb_t {et:.3e} < tilt-only {eao:.3e}")
        worst_ecrb_gap = max(worst_ecrb_gap, (et - eao) / et)
    if worst_ecrb_gap > 0.02:
        fails.append(f"ecrb joint/tilt-only gap {worst_ecrb_gap:.2%}")

    for fn in (mu_L_ao, zzb_ao_t, ecrb_ao):
        if "wave" in inspect.signature(fn).parameters:
            fails.append(f"{fn.__name__} takes a wave argument")
    _emit(7, fails, time.perf_counter() - t0,
          extra=f"ecrb gap {worst_ecrb_gap:.2%}")


def test_criterion_08_map_monte_carlo():
    # 500-trial grid-search estimator straddles the bounds: above the
    # global bound at both ends, within 2x the local bound at 50 dB,
    # and under 4x the prior variance at -20 dB
    t0 = time.perf_counter()
    fails = []
    span = THRESHOLD_PRIOR.z_max - THRESHOLD_PRIOR.z_min
    var_z, var_t = span ** 2 / 12.0, 1.0 / 12.0

    rep = monte_carlo_mse(THRESHOLD_PRIOR, THRESHOLD_GEOM, THRESHOLD_WAVE,
                          50.0, 500, 0)
    snr = _db(50.0)
    bz = zzb_z(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM, THRESHOLD_WAVE)
    bt = zzb_ao_t(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM)
    ez, et = ecrb(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM, THRESHOLD_WAVE)
    if rep.mse_z < bz - 2.0 * rep.se_z:
        fails.append(f"50 dB: mse_z {rep.mse_z:.3e} under zzb {bz:.3e}")
    if rep.mse_t < bt - 2.0 * rep.se_t:
        fails.append(f"50 dB: mse_t {rep.mse_t:.3e} under zzb {bt:.3e}")
    if rep.mse_z > 2.0 * ez:
        fails.append(f"50 dB: mse_z {rep.mse_z:.3e} over 2x ecrb {ez:.3e}")
    if rep.mse_t > 2.0 * et:
        fails.append(f"50 dB: mse_t {rep.mse_t:.3e} over 2x ecrb {et:.3e}")
    hi = (rep.mse_z / ez, rep.mse_t / et)

    rep = monte_carlo_mse(THRESHOLD_PRIOR, THRESHOLD_GEOM, THRESHOLD_WAVE,
                          -20.0, 500, 0)
    snr = _db(-20.0)
    bz = zzb_z(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM, THRESHOLD_WAVE)
    bt = zzb_ao_t(THRESHOLD_PRIOR, snr, THRESHOLD_GEOM)
    if not bz <= rep.mse_z <= 4.0 * var_z:
        fails.append(f"-20 dB: mse_z {rep.mse_z:.3e} outside "
                     f"[{bz:.3e}, {4.0 * var_z:.3e}]")
    if not bt <= rep.mse_t <= 4.0 * var_t:
        fails.append(f"-20 dB: mse_t {rep.mse_t:.3e} outside "
                     f"[{bt:.3e}, {4.0 * var_t:.3e}]")
    _emit(8, fails, time.perf_counter() - t0, ceiling=900.0,
          extra=f"50 dB mse/ecrb = ({hi[0]:.2f}, {hi[1]:.2f})")


def test_criterion_09_channel_accuracy():
    # amplitude-correction error: closed identity against the scaling
    # factor, small inside ten wavelengths, monotone beyond, and below
    # every reduced model at every sampled distance
    t0 = time.perf_counter()
    fails = []
    wave = Wave(0.01)
    y_r = 10.0 * wave.wavelength
    z_grid = wave.wavelength * np.logspace(0.0, 2.0, 41)
    for t_sq in (0.1, 0.5, 0.9):
        t_z = math.sqrt(t_sq)
        prof = {k: [] for k in RERR_KINDS}
        for z in z_grid:
            pose = AxialPose(float(z), t_z)
            for k in RERR_KINDS:
                prof[k].append(rerr(k, pose, 0.0, y_r, wave))
            ident = abs(prof["nfem"][-1]
                        - (1.0 - 1.0 / scaling_factor(math.hypot(float(z),
                                                                 y_r), wave)))
            if ident > 1e-12:
                fails.append(f"identity off by {ident:.2e} at z={z:.4f}")
        nf = np.array(prof["nfem"])
        if nf[z_grid <= 10.0 * wave.wavelength].max() > 1e-3:
            fails.append(f"t_z^2={t_sq}: inner error "
                         f"{nf[z_grid <= 10.0 * wave.wavelength].max():.2e}")
        if not np.all(np.diff(nf[z_grid >= 10.0 * wave.wavelength]) < 0):
            fails.append(f"t_z^2={t_sq}: not monotone beyond 10 wavelengths")
        for k in RERR_KINDS:
            if k != "nfem" and not np.all(nf < np.array(prof[k])):
                fails.append(f"t_z^2={t_sq}: nfem not below {k}")
    _emit(9, fails, time.perf_counter() - t0,
          extra="identity, inner 1e-3 band, monotone tail, dominance")


def test_criterion_10_property_suite():
    # structural invariants: transverse fields, the model reduction
    # chain, the squared-difference form of the ambiguity function, and
    # the integer-period law for the phase-ambiguity solver pair
    t0 = time.perf_counter()
    fails = []
    rng = np.random.default_rng(10)

    worst = 0.0
    wave = Wave(0.3)
    for _ in range(10_000):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        pose = GeneralPose((rng.uniform(-2, 2), rng.uniform(-2, 2),
                            rng.uniform(0.1, 5.0)), tuple(n))
        x_r, y_r = rng.uniform(-3, 3, 2)
        e = vector_field(pose, x_r, y_r, wave)
        sep = np.array([x_r - pose.position[0], y_r - pose.position[1],
                        -pose.position[2]])
        worst = max(worst, abs(e @ sep)
                    / (np.linalg.norm(e) * np.linalg.norm(sep)))
    if worst > 1e-10:
        fails.append(f"transversality residual {worst:.2e}")

    from nfepm.channel import degenerate_channel, general_channel
    worst_chain = 0.0
    wave = Wave(0.2)
    for _ in range(1000):
        z = rng.uniform(0.1, 4.0)
        t = rng.uniform(0.0, 0.999)
        x_r, y_r = rng.uniform(0.0, 2.0, 2)
        pose = AxialPose(z, t)
        general = general_channel(
            GeneralPose((0.0, 0.0, z), (0.0, float(pose.transverse), t)),
            x_r, y_r, wave)
        near = nf_channel(pose, x_r, y_r, wave)
        worst_chain = max(worst_chain, abs(general - near) / abs(near))
        on_axis = axis_channel(z, t, y_r, wave)
        near0 = nf_channel(pose, 0.0, y_r, wave)
        worst_chain = max(worst_chain, abs(near0 - on_axis) / abs(on_axis))
        flat = axis_channel(z, 0.0, y_r, wave)
        afem = degenerate_channel("afem", AxialPose(z, 0.0), 0.0, y_r, wave)
        worst_chain = max(worst_chain, abs(flat - afem) / abs(afem))
    if worst_chain > 1e-12:
        fails.append(f"reduction chain residual {worst_chain:.2e}")

    worst_af = 0.0
    wave = Wave(0.25)
    for _ in range(1000):
        th_z = rng.uniform(0.5, 5.0)
        th_t = rng.uniform(0.0, 0.7)
        pair = HypothesisPair(th_z, th_t, rng.uniform(0.0, 2.0),
                              rng.uniform(0.0, 1.0 - th_t - 1e-9))
        y = rng.uniform(0.0, 3.0)
        af = ambiguity_function(pair, y, wave)
        h0 = axis_channel(pair.theta_z, pair.theta_t, y, wave)
        h1 = axis_channel(pair.theta_z + pair.delta_z,
                          pair.theta_t + pair.delta_t, y, wave)
        ref = abs(h1 - h0) ** 2
        worst_af = max(worst_af, abs(af - ref) / max(ref, 1e-30))
    if worst_af > 1e-10:
        fails.append(f"ambiguity identity residual {worst_af:.2e}")

    wave = Wave(0.1)
    geom = ArrayGeometry(1.0, 0.05)
    k = wave.wavenumber
    ya, yb = geom.element_center(1), geom.element_center(geom.n_elements // 2)
    z = rng.uniform(5.0, 50.0, 1000)
    for y_lo, y_hi in ((ya, yb), (0.5 * geom.pitch, 1.5 * geom.pitch)):
        ra, rb = np.hypot(y_lo, z), np.hypot(y_hi, z)
        tha = np.angle(np.exp(1j * k * ra))
        thb = np.angle(np.exp(1j * k * rb))
        na = np.floor(k * ra / (2 * np.pi) - tha / (2 * np.pi) + 0.5)
        nb = np.floor(k * rb / (2 * np.pi) - thb / (2 * np.pi) + 0.5)
        expect = np.where(thb > tha, 0.0, 1.0)
        if not np.array_equal(nb - na, expect):
            fails.append(f"period law broken for pair ({y_lo}, {y_hi})")
    _emit(10, fails, time.perf_counter() - t0,
          extra="transversality, reduction chain, ambiguity identity, "
                "period law")
