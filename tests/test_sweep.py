"""SNR sweeps: each bound and the MAP harness over a sweep give exactly
the values of their one-SNR calls."""

import importlib
import math
import warnings

import numpy as np
import pytest

from nfepm.channel import AxialPose
from nfepm.ecrb import ecrb, ecrb_ao, ecrb_asymptotic, fim_closed
from nfepm.errors import InvariantViolation, NonFinite
from nfepm.geometry import ArrayGeometry, UniformPrior, Wave
from nfepm.mapest import MapGrid, monte_carlo_mse
from nfepm.numerics import TZ_EPS, stream
from nfepm.observation import snr_from_db
from nfepm.zzb import ZZBGrid, mu_L_ao, zzb_ao_t, zzb_z

mapest_module = importlib.import_module("nfepm.mapest")
zzb_module = importlib.import_module("nfepm.zzb")

# The fig4 geometry of the paper's bound curves, over -20...60 dB: low
# SNRs run the offset integral to its last node, high ones are cut early.
GEOM, WAVE, PRIOR = ArrayGeometry(5.0, 0.1), Wave(0.1), UniformPrior(3.0, 5.0)
DB = tuple(float(db) for db in range(-20, 61, 5))
SNR = [snr_from_db(db) for db in DB]
GRID = ZZBGrid(16, 8, 8)
ECRB_GRID = (16, 12)


def test_zzb_sweep_equals_one_snr_calls(monkeypatch):
    # blocks of three boxes, so the sweep spans many (SNR, box) blocks
    box = GRID.n_theta_z * GRID.n_theta_t
    monkeypatch.setattr(zzb_module, "_BLOCK_CELLS", 3 * box)
    assert len(SNR) * box > zzb_module._BLOCK_CELLS
    real_q = zzb_module.q_function
    cells = []

    def recording_q(x):
        cells.append(x.size)
        return real_q(x)

    monkeypatch.setattr(zzb_module, "q_function", recording_q)
    for bound, args in ((zzb_z, (GEOM, WAVE)), (zzb_ao_t, (GEOM,))):
        cells.clear()
        sweep = bound(PRIOR, SNR, *args, GRID)
        # no Q array holds more than one block of cells, or one box if
        # a box is larger, whatever the sweep length
        assert max(cells) <= max(zzb_module._BLOCK_CELLS, box)
        # the Q cells of each one-SNR call: the outer integral evaluates
        # batches of nodes at once, so the count of Q arrays no longer
        # follows the nodes reached; the cells still fall with them
        q_cells = []
        for snr in SNR:
            cells.clear()
            assert sweep[len(q_cells)] == bound(PRIOR, snr, *args, GRID)
            q_cells.append(sum(cells))
        assert q_cells[0] > q_cells[-1], bound.__name__
    assert isinstance(zzb_z(PRIOR, SNR[0], GEOM, WAVE, GRID), float)


def test_ecrb_sweep_equals_one_snr_calls():
    bz, bt = ecrb(PRIOR, SNR, GEOM, WAVE, ECRB_GRID)
    assert list(zip(bz, bt)) == [ecrb(PRIOR, snr, GEOM, WAVE, ECRB_GRID)
                                 for snr in SNR]
    assert list(ecrb_ao(PRIOR, SNR, GEOM, ECRB_GRID)) == [
        ecrb_ao(PRIOR, snr, GEOM, ECRB_GRID) for snr in SNR]
    for large_z in (False, True):
        az, at = ecrb_asymptotic(PRIOR, SNR, GEOM, WAVE, large_z)
        assert list(zip(az, at)) == [
            ecrb_asymptotic(PRIOR, snr, GEOM, WAVE, large_z) for snr in SNR]


class _CornerDraws:
    """A base stream whose two pose draws end with the prior box's four
    corners."""

    def __init__(self, seed):
        self.rng = stream(seed)
        self.corners = iter(([PRIOR.z_min, PRIOR.z_min, PRIOR.z_max, PRIOR.z_max],
                             [0.0, 1.0 - TZ_EPS] * 2))

    def uniform(self, low, high, size):
        draws = self.rng.uniform(low, high, size)
        draws[-4:] = next(self.corners)
        return draws


def test_monte_carlo_sweep_equals_one_level_calls(monkeypatch):
    # the sweep refines every level's rows together; 57 trials leave a last
    # coarse block of one row, 64 fill every block, and both end with the
    # box corners, whose patches are clipped
    grid = MapGrid(32, 16, 1)
    reports = monte_carlo_mse(PRIOR, GEOM, WAVE, DB, 6, 5, grid)
    assert reports == [monte_carlo_mse(PRIOR, GEOM, WAVE, db, 6, 5, grid)
                       for db in DB]
    monkeypatch.setattr(mapest_module, "stream", _CornerDraws)
    grid = MapGrid(32, 16, 2)
    for trials in (57, 64):
        reports = monte_carlo_mse(PRIOR, GEOM, WAVE, DB, trials, 5, grid)
        assert reports == [monte_carlo_mse(PRIOR, GEOM, WAVE, db, trials, 5, grid)
                           for db in DB]


# every entry point that takes a linear SNR; mu_L_ao on three distances
ENTRY_POINTS = {
    "fim_closed": lambda snr: fim_closed(AxialPose(4.0, 0.3), snr, GEOM, WAVE),
    "mu_L_ao": lambda snr: mu_L_ao(np.array([3.0, 4.0, 5.0]), 0.3, 0.1, snr, GEOM),
    "zzb_z": lambda snr: zzb_z(PRIOR, snr, GEOM, WAVE, GRID),
    "zzb_ao_t": lambda snr: zzb_ao_t(PRIOR, snr, GEOM, GRID),
    "ecrb": lambda snr: ecrb(PRIOR, snr, GEOM, WAVE, ECRB_GRID),
    "ecrb_ao": lambda snr: ecrb_ao(PRIOR, snr, GEOM, ECRB_GRID),
    "ecrb_asymptotic": lambda snr: ecrb_asymptotic(PRIOR, snr, GEOM, WAVE),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_infinite_snr_is_rejected(name):
    # an infinite SNR made the information infinite and the bounds 0;
    # NaN and negative SNRs keep their message
    bound = ENTRY_POINTS[name]
    for snr in (math.inf, [1.0, math.inf]):
        with pytest.raises(InvariantViolation,
                           match=r"^snr must be finite, got inf$"):
            bound(snr)
    for snr in (math.nan, -1.0):
        with pytest.raises(InvariantViolation, match="^snr must be >= 0"):
            bound(snr)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_sequence_snr_is_a_sweep(name):
    # a list or an array of SNRs gives the one-SNR calls' values bit for
    # bit, the SNR on the last axis (mu_L_ao's after its distances);
    # fim_closed takes one SNR. Both raised a bare TypeError on a list,
    # and fim_closed gave a FisherInfo of arrays on an array
    bound = ENTRY_POINTS[name]
    snrs = SNR[8:11]
    for snr in (snrs, np.array(snrs)):
        if name == "fim_closed":
            with pytest.raises(InvariantViolation,
                               match=r"^fim_closed takes one pose and one snr$"):
                bound(snr)
        else:
            got = np.moveaxis(np.asarray(bound(snr)), -1, 0)
            assert np.array_equal(got, [bound(s) for s in snrs])
    # a ragged sweep, or one of other than real numbers, raised a bare
    # ValueError or TypeError
    for bad in ([], [[1.0, 2.0]], [1.0, [2.0, 3.0]], ["a"], [1j]):
        with pytest.raises(InvariantViolation, match="sequence"):
            bound(bad)


def test_sweep_errors_name_the_offending_snr(monkeypatch):
    with pytest.raises(InvariantViolation, match=r"snr must be >= 0, got -1\.0$"):
        zzb_z(PRIOR, [1.0, -1.0, 2.0], GEOM, WAVE, GRID)
    with pytest.raises(InvariantViolation, match=r"snr must be > 0, got 0\.0$"):
        ecrb_ao(PRIOR, [1.0, 0.0], GEOM, ECRB_GRID)
    # 1 / (2 snr pitch) overflows at 1e-310
    with pytest.raises(NonFinite, match=r"at snr 1e-310$"):
        ecrb(PRIOR, [1.0, 1e-310, 1e-311], GEOM, WAVE, ECRB_GRID)
    # a ZZB that leaves the float range: zzb_z on a prior out to 1e300 m
    # (the offset weights overflow, while the tilt-only box stays finite);
    # numpy warns of nothing on the way. On a prior at subnormal distances
    # the tilt-only statistic takes its coefficients' limits and stays
    # finite: the bound is 0, its mass below the outer integral's floor
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFinite, match=r"^ZZB not finite at snr 2\.0$"):
            zzb_z(UniformPrior(3.0, 1e300), [2.0, 3.0], GEOM, WAVE, GRID)
        tiny = zzb_ao_t(UniformPrior(1e-320, 1e-310), [2.0, 3.0], GEOM, GRID)
    assert np.all(np.isfinite(tiny))
    # the tilt bound names the first SNR where it is not finite, here
    # the outer integral made NaN at 3
    outer = zzb_module._outer

    def poisoned(prior, hi, grid, sp, box):
        return np.where(sp == 3.0 * GEOM.pitch, math.nan,
                        outer(prior, hi, grid, sp, box))

    with monkeypatch.context() as m:
        m.setattr(zzb_module, "_outer", poisoned)
        with pytest.raises(NonFinite, match=r"^ZZB not finite at snr 3\.0$"):
            zzb_ao_t(PRIOR, [2.0, 3.0, 4.0], GEOM, GRID)
    assert math.isfinite(zzb_ao_t(PRIOR, 3.0, GEOM, GRID))
    for bad in ([], [[1.0, 2.0]], [1.0, [2.0, 3.0]]):
        with pytest.raises(InvariantViolation, match="sequence"):
            zzb_ao_t(PRIOR, bad, GEOM, GRID)
        with pytest.raises(InvariantViolation, match="sequence"):
            monte_carlo_mse(PRIOR, GEOM, WAVE, bad, 2, 0, MapGrid(8, 8, 0))
