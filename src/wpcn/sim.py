"""Monte-Carlo throughput estimation and frame-level energy-ledger traces.

The trace simulator replays a policy over seeded gain draws and keeps the
stored-energy ledger as one running sum of the frames' net energy. Two modes:

* non-causal (default): matches the analysis, which balances energy only in
  expectation; the ledger may go negative and the analytical throughput is
  an upper bound that the trace mean converges to.
* causal: a frame scheduled for transmission is demoted to harvesting when
  the stored energy cannot cover the frame's consumption. This realizes the
  "may only harvest at start-up" behaviour; the exact demotion rule is this
  package's choice, not part of the analytical model. The running sum
  restarts at each demoted frame from the exact level before it.

Memory: the frames are walked in blocks, the leaves of numpy's
pairwise-summation tree (``_pairwise``; at most ``_FRAME_BLOCK`` = 8,192
frames each, 64 KiB a float column). A block draws its gains by
``channel.sample``, computes its modes, energies and rates, and runs the
ledger in windows of ``_LEDGER_BLOCK`` frames, the exact level carried
from block to block. Each block then goes to an ``on_block`` sink, so a
streamed trace holds one block, under 1 MiB, and no full-length array;
without a sink the blocks fill the six ``FrameTrace`` columns, 41 bytes a
frame. The summary adds the blocks' sums along the same tree, so its means
are those of ``np.mean`` on whole columns bit for bit, as is every entry
that of one whole-array expression.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import channel, schemes
from .schemes import HTTPolicy, Policy, SystemParams

MODE_WIT = "WIT"
MODE_WPT = "WPT"
MODE_SPLIT = "SPLIT"
MODE_NAMES = (MODE_WIT, MODE_WPT, MODE_SPLIT)
_WIT, _WPT, _SPLIT = 0, 1, 2
_FRAME_BLOCK = channel._FRAME_BLOCK  # frames per block of per-frame quantities
_LEDGER_BLOCK = 4096  # frames per ledger window at most: a demotion re-sums at most this many
_LEDGER_RESTART = 64  # frames in the window after a demotion


@dataclass
class FrameTrace:
    """Columnar per-frame ledger: one array per quantity, one entry per frame.

    It holds a whole trace, or one block of it passed to ``on_block``.
    ``mode`` holds int codes; ``MODE_NAMES[code]`` is the mode's name. The
    HTT split is not stored: ``schemes.htt_frame(gain, params)[0]`` gives it.
    """

    gain: np.ndarray
    mode: np.ndarray          # int codes, see MODE_NAMES
    harvested: np.ndarray
    consumed: np.ndarray
    stored: np.ndarray        # post-frame ledger
    rate: np.ndarray


@dataclass(frozen=True)
class TraceSummary:
    n_frames: int
    mean_rate_bits: float
    mean_harvested: float
    mean_consumed: float
    min_stored: float
    skipped_wit_frames: int


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float


def mc_throughput(policy: Policy, params: SystemParams, n: int, seed: int) -> McEstimate:
    """Sample-mean throughput over n seeded gain draws, with standard error.

    The rates are those of the non-causal ``run_policy_trace`` on the same
    draws, so its mean rate equals this estimate's mean exactly. The trace
    is streamed: of its columns only the rates are kept, and the squared
    deviations of ``np.std(rates, ddof=1)`` overwrite them, with its bits.
    """
    if n < 2:
        raise ValueError("mc_throughput needs n >= 2 for a standard error")
    rates = np.empty(n)

    def keep_rates(start: int, block: FrameTrace) -> None:
        rates[start:start + len(block.rate)] = block.rate

    run_policy_trace(policy, params, n, seed, on_block=keep_rates)
    mean = np.mean(rates)
    rates -= mean
    np.multiply(rates, rates, out=rates)
    return McEstimate(mean=float(mean),
                      std_error=float(np.sqrt(np.sum(rates) / (n - 1)) / math.sqrt(n)))


def _pairwise(start: int, stop: int, leaf):
    """numpy's pairwise sum over frames [start, stop), with ``leaf(start, stop)`` a leaf's sum.

    ``np.add.reduce`` on n > 128 floats adds the sum of the first
    ``n//2 - (n//2) % 8`` to that of the rest; here a node of at most
    ``_FRAME_BLOCK`` frames is a leaf, summed by ``np.sum``, so the result
    has the bits of ``np.sum`` on the whole column. Leaves are called left
    to right.
    """
    n = stop - start
    if n <= _FRAME_BLOCK:
        return leaf(start, stop)
    half = n // 2 - (n // 2) % 8
    left = _pairwise(start, start + half, leaf)
    right = _pairwise(start + half, stop, leaf)
    with np.errstate(over="ignore"):  # an overflowing sum is taken again, scaled
        return left + right


def _block_sums(columns, scale: float) -> np.ndarray:
    """The columns' sums, then their sums with every entry scaled by ``scale``.

    ``scale`` is a power of 2, so a finite sum times ``scale`` is the sum
    of the scaled entries (bar subnormal ones); only an overflowing sum is
    taken again over the scaled entries.
    """
    with np.errstate(over="ignore"):
        plain = np.array([np.sum(c) for c in columns])
        scaled = plain * scale
        for k in np.flatnonzero(np.isinf(plain)):
            scaled[k] = np.sum(columns[k] * scale)
    return np.concatenate((plain, scaled))


def _largest_draw(n_frames: int, seed: int) -> float:
    """The largest of the seed's first ``n_frames`` draws, sampled a block at a time."""
    return max(float(np.max(channel.sample(min(_FRAME_BLOCK, n_frames - start), seed,
                                           start).values))
               for start in range(0, n_frames, _FRAME_BLOCK))


def _check_draws(gmax: float, pd_gbar: float, params: SystemParams, htt: bool) -> None:
    """Raise as frames with draws up to ``gmax`` would: the harvest, then HTT's frame SNR."""
    with np.errstate(over="ignore", invalid="ignore"):
        # p_d gbar g rises with g, so the largest draw decides for every frame
        top = pd_gbar * gmax
    if not np.isfinite(top):
        raise ValueError(f"full-frame harvest p_d gbar g overflows at p_d={params.p_d}")
    if htt:
        schemes.htt_instant_snr(gmax, params)


def _run_ledger(level: float, g, mode, harvested, consumed, stored, rate,
                pd_gbar: float, causal: bool) -> tuple[float, int]:
    """Fill ``stored`` with the running sum of the block's net energy from ``level``.

    In causal mode a transmit frame the level cannot cover is demoted to
    harvesting in place. Returns the level after the block and the number
    of demoted frames. Every window is summed in one buffer; after a
    demotion the next window is ``_LEDGER_RESTART`` frames long, and each
    window without one doubles the length, up to ``_LEDGER_BLOCK``.
    """
    # net is exact (one of harvested/consumed is 0), and np.cumsum adds in
    # sequence whatever the windows: each level is stored[k-1] + net[k]
    n, skipped, i, width = len(g), 0, 0, _LEDGER_BLOCK
    buffer = np.empty(min(n, _LEDGER_BLOCK) + 1)
    while i < n:
        j = min(i + width, n)
        run = buffer[:j - i + 1]  # run[k]: level before frame i+k
        run[0] = level
        np.subtract(harvested[i:j], consumed[i:j], out=run[1:])
        np.cumsum(run, out=run)
        # a level is >= 0 up to the first broke frame, and only transmit frames consume
        broke = np.flatnonzero(run[:-1] < consumed[i:j]) if causal else ()
        if len(broke):
            # not enough charge: demote the first such frame to harvesting and
            # restart the sum there, from the exact level before it; the next,
            # short window begins at that frame and sums its new net
            j = i + int(broke[0])
            mode[j], consumed[j], rate[j] = _WPT, 0.0, 0.0
            harvested[j] = pd_gbar * g[j]
            skipped += 1
            width = _LEDGER_RESTART
        else:
            width = min(2 * width, _LEDGER_BLOCK)
        stored[i:j] = run[1:j - i + 1]
        level, i = run[j - i], j
    return level, skipped


def run_policy_trace(policy: Policy, params: SystemParams, n_frames: int, seed: int,
                     causal: bool = False, initial_energy: float = 0.0,
                     on_block=None) -> tuple[FrameTrace | None, TraceSummary]:
    """Simulate the per-frame energy ledger of a policy.

    Transmit frames consume the policy's uplink energy, harvest frames add
    p_d gbar g, and split (HTT) frames net to zero by construction. In
    causal mode a transmit frame with insufficient stored energy is demoted
    to harvesting and counted in ``skipped_wit_frames``. ``initial_energy``
    is the ledger's starting charge and must be finite and >= 0. The ledger
    is one running sum, restarted at each demotion, so ``stored`` is bitwise
    the recurrence ``stored[k] = stored[k-1] + (harvested[k] - consumed[k])``.

    With ``on_block``, each block of frames is passed as
    ``on_block(start, block)``, ``block`` a ``FrameTrace`` of the frames
    from ``start`` on that is valid only during the call; no full-length
    array is allocated and the trace returned is None. Without it the
    blocks fill the returned trace's columns. Every error is raised before
    the first block, a ledger level out of float range too (ValueError;
    where the level's bound overflows, a dry run of the ledger decides). A
    mean whose sum overflows although every frame fits is the mean of the
    entries scaled by 2^-m (m = ``n_frames.bit_length()``), times 2^m.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if not 0.0 <= initial_energy < math.inf:
        raise ValueError("initial_energy must be finite and >= 0")
    htt = isinstance(policy, HTTPolicy)
    pd_gbar = params.p_d * params.gbar
    try:  # no draw exceeds G_MAX; only where that bound fails is the largest draw needed
        _check_draws(channel.G_MAX, pd_gbar, params, htt)
    except ValueError:
        _check_draws(_largest_draw(n_frames, seed), pd_gbar, params, htt)
    if not htt:
        lo, hi = policy.band
        pu, gammabar, eligible = schemes.band_uplink(lo, hi, params)
        if not eligible:
            raise schemes.UplinkOverflowError(params)

    scale = 2.0 ** -n_frames.bit_length()

    def walk(sink) -> tuple[np.ndarray, int, float]:
        """Run the frames through the ledger, block by block into ``sink``:
        the blocks' sums along the pairwise tree, the demotions, the lowest level."""
        level, skipped, low = float(initial_energy), 0, math.inf

        def leaf(start: int, stop: int) -> np.ndarray:
            nonlocal level, skipped, low
            g = channel.sample(stop - start, seed, start).values
            if htt:
                tau, rate, _ = schemes.htt_frame(g, params)
                mode = np.full(len(g), _SPLIT, dtype=np.int8)
                harvested = tau * (pd_gbar * g)
                consumed = harvested  # per-frame balance, exact by construction
                # every net is +0.0: each level is the running sum's level + 0.0,
                # and no ledger window runs (a -0.0 charge turns +0.0)
                level += 0.0
                stored = np.full(len(g), level)
            else:
                wit = (g >= lo) & (g < hi)  # half-open band: ties go to the upper side
                idle = ~wit
                mode = idle.view(np.int8)  # _WIT is 0, _WPT 1
                harvested = pd_gbar * g
                harvested *= idle
                consumed = wit * pu
                # log1p in the band alone: gammabar g fits there (band_uplink's
                # eligibility) but may overflow outside it, and inf * 0 is NaN
                with np.errstate(over="ignore"):
                    snr = gammabar * g
                rate = np.log1p(snr, out=np.zeros(len(g)), where=wit)
                rate /= schemes.LN2
                stored = np.empty(len(g))
                level, demoted = _run_ledger(level, g, mode, harvested, consumed, stored,
                                             rate, pd_gbar, causal)
                skipped += demoted
            low = np.minimum(low, np.min(stored))
            sink(start, FrameTrace(gain=g, mode=mode, harvested=harvested, consumed=consumed,
                                   stored=stored, rate=rate))
            return _block_sums((rate, harvested, consumed), scale)

        return _pairwise(0, n_frames, leaf), skipped, low

    # |level| <= initial_energy + n_frames * max(harvest, consumption) frame by
    # frame (HTT frames net to 0); only where twice that bound, room for the
    # sums' rounding, overflows does a dry run of the ledger decide
    if not htt and not math.isfinite(
            2.0 * (initial_energy + n_frames * max(pd_gbar * channel.G_MAX, pu))):
        def refuse_overflow(start: int, block: FrameTrace) -> None:
            if not np.isfinite(block.stored).all():
                raise ValueError(f"stored energy overflows the float range at p_d={params.p_d}")

        with np.errstate(over="ignore"):
            walk(refuse_overflow)
    trace = None
    if on_block is None:
        trace = FrameTrace(np.empty(n_frames), np.empty(n_frames, dtype=np.int8),
                           *(np.empty(n_frames) for _ in range(4)))

        def on_block(start, block):
            for field in dataclasses.fields(block):
                column = getattr(trace, field.name)
                column[start:start + len(block.gain)] = getattr(block, field.name)

    sums, skipped, low = walk(on_block)
    # np.mean divides np.sum by n; an overflowing sum falls back to the scaled one
    plain, scaled = sums[:3], sums[3:]
    rate_mean, harvested_mean, consumed_mean = np.where(
        np.isfinite(plain), plain / n_frames, scaled / n_frames / scale).tolist()
    summary = TraceSummary(
        n_frames=n_frames,
        mean_rate_bits=rate_mean,
        mean_harvested=harvested_mean,
        mean_consumed=consumed_mean,
        min_stored=float(low),
        skipped_wit_frames=skipped,
    )
    return trace, summary
