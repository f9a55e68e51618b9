"""Energy bookkeeping and transient-response spectra.

Work is accumulated trapezoidally from nodal forces; the energy balance
error is reported in percent as 100 |(W_ext - W_int - W_kin) / W_ext|.
Natural frequencies come from FFT peaks of displacement histories (the
system is never eigen-analyzed directly).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# mJ: below this |W_ext| the balance error is flagged and reported as 0
W_EXT_FLOOR = 1e-12


@dataclass
class EnergyLedger:
    """Accumulated work of external and internal forces plus the current
    kinetic energy, in mJ (N mm)."""
    w_kin: float = 0.0
    w_int: float = 0.0
    w_ext: float = 0.0
    flagged: bool = False


def kinetic_energy(velocity, mass) -> float:
    """1/2 v^T M v of the per-DoF diagonal mass `mass`."""
    v = np.asarray(velocity, float)
    return 0.5 * float(np.dot(mass * v, v))


def accumulate_work(ledger: EnergyLedger, f_ext_start, f_ext_end,
                    f_int_start, f_int_end, dq, out=None) -> EnergyLedger:
    """Trapezoidal work increment over one step; exact for forces linear in
    the displacement.  The external forces passed here must include the
    reactions on prescribed DoFs.  `out`, when given, is a float array of
    dq's shape that takes the force sums in turn."""
    dq = np.asarray(dq, float)
    ledger.w_ext += 0.5 * float(
        np.add(f_ext_start, f_ext_end, out=out, dtype=float).dot(dq))
    ledger.w_int += 0.5 * float(
        np.add(f_int_start, f_int_end, out=out, dtype=float).dot(dq))
    return ledger


def book_perturbation(ledger: EnergyLedger, f_int_before, f_int_after,
                      jump) -> EnergyLedger:
    """Work of an external agent that imposes a displacement jump (a
    perturbation): the trapezoidal internal work over the jump is done by
    the agent, so it enters W_int and W_ext alike."""
    w = 0.5 * float(np.dot(np.asarray(f_int_before, float)
                           + np.asarray(f_int_after, float),
                           np.asarray(jump, float)))
    ledger.w_int += w
    ledger.w_ext += w
    return ledger


def book_release(ledger: EnergyLedger, held, dq) -> EnergyLedger:
    """Work of the agent that held the perturbed state against the
    out-of-balance force `held` and lets go of it, linearly, over the next
    step `dq`."""
    ledger.w_ext += 0.5 * float(np.dot(np.asarray(held, float),
                                       np.asarray(dq, float)))
    return ledger


def energy_balance_error(ledger: EnergyLedger) -> float:
    """Percent imbalance; 0 (flagged) while the external work is still below
    `W_EXT_FLOOR`."""
    if abs(ledger.w_ext) < W_EXT_FLOOR:
        ledger.flagged = True
        return 0.0
    ledger.flagged = False
    return 100.0 * abs((ledger.w_ext - ledger.w_int - ledger.w_kin)
                       / ledger.w_ext)


@dataclass
class Spectrum:
    frequencies: np.ndarray       # full magnitude-spectrum axis, Hz
    amplitudes: np.ndarray
    peaks: list = field(default_factory=list)  # (frequency, amplitude)


def fft_peaks(series, dt: float, n_peaks: int = 5) -> Spectrum:
    """Magnitude spectrum of the mean-removed, Hann-windowed series with the
    `n_peaks` strongest local maxima refined by 3-point parabolic
    interpolation, returned in ascending frequency."""
    y = np.asarray(series, float)
    if len(y) < 16:
        raise ValueError("series too short for a spectrum (need >= 16 samples)")
    y = y - y.mean()
    w = np.hanning(len(y))
    mag = np.abs(np.fft.rfft(y * w))
    freqs = np.fft.rfftfreq(len(y), d=dt)

    interior = np.arange(1, len(mag) - 1)
    is_peak = (mag[interior] > mag[interior - 1]) & \
              (mag[interior] >= mag[interior + 1]) & (mag[interior] > 0)
    candidates = interior[is_peak]
    candidates = candidates[np.argsort(mag[candidates])[::-1][:n_peaks]]

    df = freqs[1] - freqs[0]
    peaks = []
    for i in sorted(candidates):
        a, b, c = mag[i - 1], mag[i], mag[i + 1]
        denom = a - 2.0 * b + c
        shift = 0.5 * (a - c) / denom if denom != 0 else 0.0
        shift = float(np.clip(shift, -0.5, 0.5))
        peaks.append((freqs[i] + shift * df,
                      float(b - 0.25 * (a - c) * shift)))
    return Spectrum(freqs, mag, peaks)
