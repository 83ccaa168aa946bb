"""Monte Carlo engine and estimators on the chain of ``chain.build_chain``.

Randomness is a stateless counter hash of (seed, replication, step), so
a replication's path does not depend on which other replications run
beside it.  The engine (``_walk``) is one loop over the replications
still running; each pass moves them through a block of steps, positions
first, then clocks by a running sum (one add per row on a block much
wider than long, one accumulate on the others; terminal nodes lead to
themselves), and it compacts the set only after a block in which one of
them ended.

Every walk node steps right with probability exactly 1/2 (its two cells
are equal in scale, see ``chain``), so a coin is one bit.  A uniform
(z >> 11) * 2 ** -53 is below 1/2 exactly when the top bit of the
finished hash z is 0, and the last xorshift of the hash keeps that bit,
so both loops read a right coin as a hash taken before it that is below
2 ** 63 (``_HALF``).  Every block of the hitting loop, and every block of
``_walk`` of at least 64 steps (so at most 256 replications running),
packs its coins into words of 8 and walks every replication a word per
``take`` (``_pack_words``), through tables of word moves built by
stepping the node table ``go`` once per coin (``_word_moves``):
``_walk`` keeps every step of a word, to fill the rows of its block
with one more ``take``, and the hitting loop only where a word leads
and the holding times it adds (``_passage_moves``).

``estimate_hitting`` reads only each replication's status and hit, so
it decides them with a positions-only loop (``_first_passage``) that
keeps no path or clock, only a running sum S of the mean holding times
of the nodes each replication has left.  Terminal nodes lead to
themselves and hold 0, so S stops where one was reached.  With
deterministic holding times the engine's clock after k steps lies
within k * 2 ** -50 * S of S (four times the bound on their rounding:
both sum the same non-negative terms, in other orders), so a
replication at a terminal node with S * (1 + k * 2 ** -50) below t_max
was absorbed before the horizon, and one with S * (1 - k * 2 ** -50) at
or past t_max is alive at it (``_bracket``); the rare one at a terminal
node in between is replayed through ``_walk`` with its own counter
stream.  An exponential holding time is its mean times -log1p(-u), with
u <= 1 - 2 ** -53, so that factor lies in [0, 53 ln 2 = 36.74] (DET
nodes keep factor 1), and the clock lies between 0 and
37 * S * (1 + k * 2 ** -50) (``_EXP_BOUND``).  A replication at a
terminal node below that bound is decided absorbed.  With no positive
lower bound, none is surely past a horizon above 0, so one whose bound
reaches t_max first is replayed at once, as is every one still running,
or absorbed, in a block that ends past the step cap.  A call where
37 * min_tau times the fewest steps from the start to a terminal node
is at least t_max can decide none, so all of it takes ``_walk`` at once.
Replays read the same counters, so statuses, hits and step-cap warnings
are those of ``run``.

``simulate_path`` traces one replication through the same loop;
``n_jobs`` is accepted for compatibility and changes nothing.  Holding
times are deterministic by default; ``exponential_holding=True`` draws
exponential times at walk nodes.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .chain import (DET, KILL_INF, KILL_WINDOW, TRAP_NODE, WALK, ChainModel,
                    build_chain)
from .errors import DomainError
from .expr import evaluate
from .model import REGULAR, DiffusionSpec

__all__ = ["ChainModel", "build_chain", "run", "simulate_path", "PathResult",
           "estimate_hitting", "analytic_hitting", "estimate_symmetry_defect",
           "MODE_FULL", "MODE_KILLED", "MODE_PART", "STATUS_NAMES"]

# replication statuses
RUNNING, ALIVE, KILLED_WINDOW, ABSORBED_TRAP, DEAD_INF = 0, 1, 2, 3, 4
STATUS_NAMES = {ALIVE: "alive", KILLED_WINDOW: "killed_at_window",
                ABSORBED_TRAP: "absorbed_at_trap",
                DEAD_INF: "dead_at_infinite_endpoint"}

MODE_FULL = "full"
MODE_KILLED = "killed_at_traps"
MODE_PART = "part_on_window"
_MODES = (MODE_FULL, MODE_KILLED, MODE_PART)

_STEP_START = 1 << 62  # counter slot reserved for start-node sampling
# engine hashes drawn per block of steps (length: see _walk); on numpy
# 2.4.6 the benchmark's defect calls ran faster at 16384 than at 8192 or
# 32768, and its hitting calls as fast as at 32768
_BLOCK = 16384
# clocks add by rows once the active set is this many times the block
# length (measured on numpy 2.4.6: the two sums cost the same at 4-8 times)
_ROWS_FROM = 8
# a block of at least _WORD_FROM steps reads its coins _WORD at a time,
# through tables of 2 ** _WORD * (_WORD + 1) * n_nodes entries, built only
# for chains of at most _WORD_NODES nodes (see _walk).  Measured on numpy
# 2.4.6, words move 256 steps over 64 replications in 0.4 of the time of
# one row per coin and 64 over 256 in 0.85, while at 32 steps and fewer
# one row per coin is as fast or faster
_WORD = 8
_WORD_FROM = 64
_WORD_NODES = 2048
_WORD_BITS = (1 << np.arange(_WORD)).astype(np.uint8)
# hashes per block of the positions-only loop of estimate_hitting
# (_first_passage).  Measured on numpy 2.4.6 over 12 alternating cycles
# of the benchmark's deterministic hitting calls: 91.7 ms (median) at
# twice _BLOCK, 99.1 ms at _BLOCK (slower in 8 of the 12), 120 ms at four
# times _BLOCK
_PASSAGE_BLOCK = 2 * _BLOCK
# no exponential factor -log1p(-u) of a uniform u <= 1 - 2 ** -53 exceeds
# 53 ln 2 = 36.7368..., so this many times the sum of the mean holding
# times bounds an exponential clock (see _first_passage)
_EXP_BOUND = 37.0
# a hash taken before its last xorshift is a right coin below this (see
# the module docstring)
_HALF = np.uint64(1 << 63)
_Z95 = 1.959963984540054  # two-sided 95 % normal quantile of the intervals


# ---------------------------------------------------------------------------
# counter-based uniforms

_PHI = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_C_REP = np.uint64(0xD1342543DE82EF95)
_C_STEP = np.uint64(0xAF251AF3B0F025B5)


def _premix(z):  # in place: the mix up to its last xorshift
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    return z


def _finish(z):  # in place: the last xorshift of the mix
    z ^= z >> np.uint64(31)
    return z


def _rep_key(seed, rep):
    """The (seed, rep) part of the counter; rep may be an array.  A seed,
    or a replication given as one number, that is not an integer in
    [0, 2 ** 64) is refused."""
    for name, value in (("seed", seed), ("rep", rep)):
        if np.ndim(value) == 0:
            if not isinstance(value, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            if not 0 <= value < 2 ** 64:
                raise DomainError(
                    f"{name} must lie in [0, 2 ** 64), got {value}")
    with np.errstate(over="ignore"):
        return (np.uint64(seed) * _PHI) \
            ^ (np.asarray(rep, dtype=np.uint64) * _C_REP)


def _keyed_hash(key, step):
    """The 64-bit hash behind ``_keyed_uniform``, before the last
    xorshift of its second mix (``_finish``); arrays broadcast."""
    with np.errstate(over="ignore"):
        z = key ^ (np.asarray(step, dtype=np.uint64) * _C_STEP)
        z += _PHI
        return _premix(_finish(_premix(z)))


def _to_uniform(z):
    """U[0,1) from finished hashes (shifted in place): their top 53 bits."""
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= 2.0 ** -53
    return u


def _keyed_uniform(key, step):
    """U[0,1) from replication keys and steps; arrays broadcast."""
    return _to_uniform(_finish(_keyed_hash(key, step)))


# ---------------------------------------------------------------------------
# the engine


def _check_t_max(t_max):
    if not 0.0 <= t_max < math.inf:
        raise DomainError(f"t_max must be finite and non-negative, got {t_max}")


def _step_cap(chain, t_max, exponential):
    """Steps after which a replication stops as if the horizon had come.
    Deterministic holding times add at least min_tau per step, so their
    cap is never reached; exponential ones can be arbitrarily short."""
    if exponential:
        return 10_000_000
    min_tau = chain.min_tau
    return int(t_max / min_tau) + 2 if math.isfinite(min_tau) else 1


def _warn_capped(count, cap):
    # warn at the line that called into this module: its first frame out
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(
        f"{count} replication(s) stopped at the step cap ({cap}) before "
        f"t_max; they are reported alive at t_max", RuntimeWarning,
        stacklevel=level)


def _sum_clocks(clock):
    """Running sums down the rows of ``clock``, in place: row i becomes
    row i - 1 plus row i, in the order of one sequential ``t + tau``.
    numpy's ``add.accumulate`` along the rows pays about 20 ns per
    column, so a block at least ``_ROWS_FROM`` times as wide as it is
    long is summed one row at a time instead; both give the same bits."""
    if clock.shape[1] >= _ROWS_FROM * (len(clock) - 1):
        for prev, row in zip(clock[:-1], clock[1:]):
            np.add(prev, row, out=row)
    else:
        np.add.accumulate(clock, axis=0, out=clock)


def _move_rows(go, path):
    """Turn rows 1.. of ``path``, the coins of a block (1 right, 0 left),
    into its positions (rows of 2 * node), one row at a time."""
    for c, nxt in zip(path[:-1], path[1:]):
        nxt += c
        # every entry is in range; unlike "raise", "wrap" writes straight
        # into out, where "raise" fills a copy of it first
        go.take(nxt, out=nxt, mode="wrap")


def _word_moves(go, fill=None):
    """Yields, for i = 1, .., _WORD, the entries 2 * the node that the
    first i coins of the word w (bit j the coin of step j, 1 right) lead
    to from node c, at [w, c]: ``go`` stepped once per coin, into
    fill[i - 1] when ``fill`` is given."""
    bits = np.unpackbits(np.arange(1 << _WORD, dtype=np.uint8)[:, None],
                         axis=1, count=_WORD, bitorder="little")
    at = np.arange(0, go.size, 2, dtype=go.dtype)
    for i in range(_WORD):  # "wrap" writes straight into fill (_move_rows)
        at = go.take(at + bits[:, i, None],
                     out=None if fill is None else fill[i], mode="wrap")
        yield at


def _passage_moves(go, hold):
    """The word moves of ``_first_passage``: ``jump[w, c]``, the node that
    the _WORD coins of the word w lead to from node c, and ``wsum[w, c]``,
    the sum, left to right, of ``hold`` (by entry 2 * node + coin) over
    the nodes they depart from."""
    wsum = np.zeros((1 << _WORD, go.size // 2))
    at = np.arange(0, go.size, 2)
    for nxt in _word_moves(go):
        wsum += hold.take(at)
        at = nxt
    return at >> 1, wsum


def _pack_words(right, head, jump):
    """Pack the coins ``right`` (rows of steps, 1 right, whole words of
    _WORD) into words and walk them from the nodes ``head``, one ``take``
    of ``jump`` (``jump[w, c]`` the node the word w leads to from node c)
    per word.  Returns the entries w * n_nodes + c of each word and the
    node it starts from, one row per word, and the nodes that all the
    words lead to."""
    n_words, active = len(right) // _WORD, right.shape[1]
    at = np.einsum("i,jik->jk", _WORD_BITS, right.view(np.uint8).reshape(
        n_words, _WORD, active)).astype(np.intp)
    at *= jump.shape[1]
    for row in at:
        row += head
        head = jump.take(row)
    return at, head


def _check_mode(mode):
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}")


def _node_rules(chain, mode, target_node):
    """Per-node tables of one engine call, so no loop branches on node
    kinds: ``moves`` (a replication goes on from the node), the status it
    ends with there (ALIVE where it moves on), whether it keeps its clock
    there, and ``go`` (2 * the node each coin side leads to, at entry
    2 * node + coin, back to the node itself where paths end, so a path
    that ends inside a block stays there)."""
    _check_mode(mode)
    kind = chain.kind
    end_code = np.zeros(chain.n_nodes, dtype=np.int8)
    end_code[kind == TRAP_NODE] = ABSORBED_TRAP
    end_code[kind == KILL_WINDOW] = KILLED_WINDOW
    end_code[kind == KILL_INF] = DEAD_INF
    keeps_time = end_code != RUNNING
    if mode != MODE_KILLED:
        keeps_time &= kind != TRAP_NODE
    if target_node >= 0:
        end_code[target_node] = ALIVE
        keeps_time[target_node] = True
    moves = end_code == RUNNING
    end_status = np.where(moves, ALIVE, end_code).astype(np.int8)
    go = np.where(kind == DET, chain.det_target,
                  [chain.nbr_left, chain.nbr_right])
    go = np.where(moves, go, np.arange(chain.n_nodes))
    go = (2 * go.T.ravel()).astype(np.intp)
    return moves, end_status, keeps_time, go


def _walk(chain, starts, keys, t_max, mode, exponential_holding, target_node,
          trace=None):
    """The engine: replication r starts at starts[r] and reads the counter
    stream keys[r].  Returns arrays final_node, final_time, status, hit.

    Each pass walks the replications still running through a block of
    steps: positions first, one coin per step (see the module docstring),
    then the clocks, by a running sum of the holding times along them
    (``_sum_clocks``).  A replication ends at the first step whose clock
    reaches t_max; the rest of its block is discarded.  Its status, kept
    clock and hit are read from its final node once, after the loop.

    With a trace (an empty list) and one start, the list receives two
    arrays: the times and the positions of that replication at its start,
    after each of its moves, and at its end when that comes later.
    """
    n_rep = len(starts)
    moves, end_status, keeps_time, go = _node_rules(chain, mode, target_node)
    # while a block moves, its rows hold 2 * node, so one addition of the
    # coin (0 left, 1 right) gives the entry of go; the holding-time
    # tables below take the same entries.  Holding times are inf where
    # paths end, so the horizon test catches them
    tau_of = np.repeat(np.where(moves, chain.tau, np.inf), 2)
    # the exponential factor stays 1.0 where tau is inf: inf * 0 is nan
    random_tau = np.repeat(moves & (chain.kind == WALK) & exponential_holding,
                           2)
    by_words = chain.n_nodes <= _WORD_NODES
    fill = None  # the word moves, built by the first long block
    cap = _step_cap(chain, t_max, exponential_holding)

    # 2 * the node and the clock where each replication ended
    final_node = np.empty(n_rep, dtype=np.int64)
    final_time = np.empty(n_rep)
    # the active set: output index, counter key, 2 * node and clock of
    # every replication still running; each has taken exactly k steps.
    # Step k reads counter 2k for its coin and 2k+1 for its exponential
    # holding time.  A block of n steps fills rows 1..n of the
    # (n + 1, active) arrays of positions and clocks; row 0 is where the
    # block starts.
    idx = np.arange(n_rep)
    key = keys
    cur = 2 * np.asarray(starts, dtype=np.intp)
    t = np.zeros(n_rep)
    path_buf, clock_buf = np.empty(0, dtype=np.intp), np.empty(0)
    if trace is not None:  # grown by half when full, with one slot to spare
        path_t, path_x = np.zeros(256), np.full(256, chain.x[starts[0]])
        n_path = 1
    per_step = 2 if exponential_holding else 1
    k = 0
    while idx.size:
        active = idx.size
        # _BLOCK // active steps, and at least 8 while that keeps the block
        # within 2 * _BLOCK values; at most 256, and none past the step cap
        n_block = min(max(_BLOCK // active, min(8, 2 * _BLOCK // active), 1),
                      256, cap + 1 - k)
        rows = (n_block + 1) * active
        if rows > path_buf.size:
            path_buf = np.empty(rows, dtype=np.intp)
            clock_buf = np.empty(rows)
        path = path_buf[:rows].reshape(n_block + 1, active)
        clock = clock_buf[:rows].reshape(n_block + 1, active)
        hashes = _keyed_hash(
            key, np.arange(2 * k, 2 * (k + n_block), 2 // per_step)[:, None])
        coins = hashes[::per_step]
        path[0] = cur
        if n_block < _WORD_FROM or not by_words:
            np.less(coins, _HALF, out=path[1:])
            _move_rows(go, path)
        else:
            if fill is None:
                fill = np.empty((_WORD, 1 << _WORD, chain.n_nodes),
                                dtype=go.dtype)
                for jump in _word_moves(go, fill):
                    pass
                jump = jump >> 1
                layers = np.arange(0, fill.size, jump.size)[:, None]
            words = np.zeros((-(-n_block // _WORD) * _WORD, active),
                             dtype=np.uint8)  # whole words: pads are left coins
            np.less(coins, _HALF, out=words[:n_block])
            at, _ = _pack_words(words, path[0] >> 1, jump)
            # one take fills every row: layer i of word j is row 8j + i + 1
            fill.take((at[:, None] + layers).reshape(-1, active)[:n_block],
                      out=path[1:], mode="wrap")
        clock[0] = t
        tau_of.take(path[:-1], out=clock[1:], mode="wrap")
        if exponential_holding:
            u = _to_uniform(_finish(hashes[1::2]))
            clock[1:] *= np.where(random_tau.take(path[:-1]), -np.log1p(-u),
                                  1.0)
        _sum_clocks(clock)
        k += n_block
        if trace is not None:
            m = n_block - np.count_nonzero(clock[1:, 0] >= t_max)
            if n_path + m >= path_t.size:
                grown = max(n_path + m + 1, path_t.size * 3 // 2)
                path_t.resize(grown, refcheck=False)
                path_x.resize(grown, refcheck=False)
            path_t[n_path:n_path + m] = clock[1:m + 1, 0]
            chain.x.take(path[1:m + 1, 0] >> 1, out=path_x[n_path:n_path + m])
            n_path += m
        # holding times are >= 0, so clocks never decrease along a block
        # and a replication ends in it exactly when its last clock reaches
        # t_max; it ends at the first step whose clock does
        ended = clock[-1] >= t_max
        if ended.any():
            ends = np.flatnonzero(ended)
            step = n_block - np.count_nonzero(clock[1:, ends] >= t_max, axis=0)
            sel = idx[ends]
            final_node[sel] = path[step, ends]
            final_time[sel] = clock[step, ends]
            keep = np.flatnonzero(~ended)  # take is cheaper than a mask
            idx, key = idx.take(keep), key.take(keep)
            cur, t = path[-1].take(keep), clock[-1].take(keep)
        else:  # nothing to compact; the next block reuses the buffers
            cur, t = path[-1].copy(), clock[-1].copy()
        if k > cap and idx.size:
            final_node[idx] = cur
            _warn_capped(idx.size, cap)
            break
    final_node >>= 1
    status = end_status.take(final_node)
    final_time = np.where(keeps_time.take(final_node), final_time, t_max)
    hit = final_node == target_node
    if idx.size:  # stopped by the step cap, maybe on a node that ends paths
        status[idx], final_time[idx], hit[idx] = ALIVE, t_max, False
    if trace is not None:
        if final_time[0] > path_t[n_path - 1]:  # held after the last move
            path_t[n_path] = final_time[0]
            path_x[n_path] = chain.x[final_node[0]]
            n_path += 1
        trace.extend((path_t[:n_path], path_x[:n_path]))
    return {"final_node": final_node, "final_time": final_time,
            "status": status, "hit": hit}


def _bracket(total, k, t_max, low, high):
    """Masks of the sums S = ``total`` after k steps whose clocks, which
    lie between ``low`` * S and ``high`` * S but for rounding, are surely
    below t_max and surely at or past it (see the module docstring)."""
    delta = k * 2.0 ** -50
    return (total * (high * (1.0 + delta)) < t_max,
            total * (low * (1.0 - delta)) >= t_max)


def _ends_within(go, moves, start, t_max, least):
    """Whether some node where paths end lies a number of steps d from
    node ``start`` with ``least`` * d below t_max: a breadth-first search
    of the node table ``go``, only as deep as that bound lets it go."""
    go, moves = go.tolist(), moves.tolist()
    seen, front, d = {start}, [start], 0
    while front and least * d < t_max:
        if not all(moves[c] for c in front):
            return True
        ahead = []
        for c in front:
            for nxt in (go[2 * c] >> 1, go[2 * c + 1] >> 1):
                if nxt not in seen:
                    seen.add(nxt)
                    ahead.append(nxt)
        front, d = ahead, d + 1
    return False


def _first_passage(chain, start, keys, t_max, mode, target_node,
                   exponential_holding):
    """Status and hit of replications that start at node ``start``, each
    reading its counter stream keys[r]: those of ``_walk``, from positions
    and sums of mean holding times alone (see the module docstring)."""
    moves, end_status, _, go = _node_rules(chain, mode, target_node)
    n_rep = len(keys)
    if not moves[start]:  # a path that starts where paths end stays there
        return (np.full(n_rep, end_status[start]),
                np.full(n_rep, start == target_node))
    # spread: the clock lies between these multiples of S, but for rounding
    if exponential_holding:
        if not _ends_within(go, moves, start, t_max,
                            _EXP_BOUND * chain.min_tau):
            # no replication can be decided: all of them take the engine
            out = _walk(chain, np.full(n_rep, start), keys, t_max, mode,
                        True, target_node)
            return out["status"], out["hit"]
        spread, cap = (0.0, _EXP_BOUND), _step_cap(chain, t_max, True)
    else:  # the engine never reaches its step cap (_step_cap)
        spread, cap = (1.0, 1.0), math.inf
    jump, wsum = _passage_moves(go, np.repeat(np.where(moves, chain.tau, 0.0),
                                              2))
    status = np.empty(n_rep, dtype=np.int8)
    hit = np.zeros(n_rep, dtype=bool)
    replays = []
    # the active set: output index, counter key, node and S of every
    # replication still running; each has taken exactly k steps
    idx = np.arange(n_rep)
    key = keys
    cur = np.full(n_rep, start, dtype=np.intp)
    total = np.zeros(n_rep)
    k = 0
    while idx.size:
        active = idx.size
        n_block = _WORD * max(_PASSAGE_BLOCK // (_WORD * active), 1)
        if k + n_block > cap:
            break  # the engine stops at the step cap inside this block
        hashes = _keyed_hash(key, np.arange(2 * k, 2 * (k + n_block),
                                            2)[:, None])
        at, cur = _pack_words(hashes < _HALF, cur, jump)
        total += wsum.take(at).sum(axis=0)
        k += n_block
        ends = ~moves.take(cur)
        below, past = _bracket(total, k, t_max, *spread)
        if exponential_holding:  # nothing is past, so once its bound
            # reaches t_max a replication is replayed: ends |= ~below
            np.less_equal(below, ends, out=ends)
        # masks combine in place, and replays are counted before they are
        # looked for: numpy keeps up to 7 freed buffers of each size below
        # 1 KiB, so each extra temporary of the size of the shrinking
        # active set holds memory for the rest of the process
        below &= ends  # reached a node where paths end before the horizon
        node = cur[below]
        status[idx[below]] = end_status.take(node)
        hit[idx[below]] = node == target_node
        status[idx[past]] = ALIVE
        gone = np.logical_or(ends, past, out=ends)
        n_gone = np.count_nonzero(gone)
        if n_gone > np.count_nonzero(below) + np.count_nonzero(past):
            replays.append(idx[gone ^ below ^ past])  # neither below nor past
        if n_gone:
            keep = np.flatnonzero(np.logical_not(gone, out=gone))
            idx, key = idx.take(keep), key.take(keep)
            cur, total = cur.take(keep), total.take(keep)
    replay = np.concatenate(replays + [idx])
    if replay.size:
        out = _walk(chain, np.full(replay.size, start), keys[replay], t_max,
                    mode, exponential_holding, target_node)
        status[replay], hit[replay] = out["status"], out["hit"]
    return status, hit


def _check_n_rep(n_rep):
    if n_rep < 1:
        raise DomainError(f"n_rep must be at least 1, got {n_rep}")


def run(chain: ChainModel, x0=None, t_max: float = 1.0, n_rep: int = 1000,
        seed: int = 0, n_jobs: int = 1, mode: str = MODE_FULL,
        exponential_holding: bool = False, target=None, starts=None) -> dict:
    """Run replications; returns arrays final_node, final_time, status, hit.

    Replication r always consumes the counter stream (seed, r, .), so
    its outcome does not depend on the other replications.  ``n_jobs``
    must be at least 1 and changes neither the numbers nor the threads
    used; it stays because the CLI's ``--jobs`` and the benchmark pass it.
    ``starts``, one node index per replication, replaces ``x0`` and
    ``n_rep``; without it ``n_rep`` must be at least 1.

    A replication ends when it reaches the target (status alive, hit
    set, the hitting time kept), a terminal node, or the horizon t_max
    (status alive at t_max).  Window edges and infinite endpoints keep
    the time they were reached.  A trap keeps its absorption time in
    ``killed_at_traps`` mode; in ``full`` and ``part_on_window`` modes the
    path stays at the trap, so its time is t_max.  ``part_on_window`` is
    the process killed only on leaving the window.  Replications stopped
    by the step cap (reachable only with exponential holding) end alive
    at t_max, with a RuntimeWarning giving their count.
    """
    if n_jobs < 1:
        raise DomainError("n_jobs must be at least 1")
    _check_t_max(t_max)
    if starts is None:
        if x0 is None:
            raise DomainError("provide x0 or starts")
        _check_n_rep(n_rep)
        starts = np.full(n_rep, chain.node_at(float(x0)), dtype=np.int64)
    else:
        starts = np.asarray(starts)
        if starts.ndim != 1 or (starts.size and not (
                np.issubdtype(starts.dtype, np.integer)
                and 0 <= starts.min() and starts.max() < chain.n_nodes)):
            raise DomainError(
                f"starts must be node indices in [0, {chain.n_nodes})")
        starts = starts.astype(np.int64)
        n_rep = len(starts)
    target_node = chain.node_at(float(target)) if target is not None else -1
    return _walk(chain, starts, _rep_key(seed, np.arange(n_rep)), t_max, mode,
                 exponential_holding, target_node)


@dataclass
class PathResult:
    times: np.ndarray
    positions: np.ndarray
    status: str

    def as_rows(self):
        for t, x in zip(self.times, self.positions):
            yield t, x


def simulate_path(chain: ChainModel, x0: float, t_max: float, seed: int = 0,
                  rep: int = 0, mode: str = MODE_FULL,
                  exponential_holding: bool = False) -> PathResult:
    """Replication ``rep`` of ``run`` with its trajectory: the start at
    time 0, one (time, position) per move, and the final time and
    position when the path ends after its last move (at the horizon, held
    at a trap, or at the step cap)."""
    _check_t_max(t_max)
    trace = []
    out = _walk(chain, [chain.node_at(float(x0))],
                _rep_key(seed, rep).reshape(1), t_max, mode,
                exponential_holding, -1, trace)
    return PathResult(*trace, STATUS_NAMES[int(out["status"][0])])


# ---------------------------------------------------------------------------
# estimators


def _wilson(hits: int, n: int):
    z = _Z95
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return p, max(center - half, 0.0), min(center + half, 1.0)


def estimate_hitting(chain: ChainModel, x0: float, target: float,
                     t_max: float, n_rep: int, seed: int = 0,
                     n_jobs: int = 1, mode: str = MODE_KILLED,
                     exponential_holding: bool = False) -> dict:
    """Probability of visiting the target position before the horizon,
    from n_rep >= 1 replications: the hits and statuses of ``run`` with
    the same arguments, replication for replication.  On a chain of at
    most _WORD_NODES nodes they are decided by positions alone, under
    either holding law, and each replication that cannot be decided so
    is replayed through ``run``'s engine (``_first_passage``, see the
    module docstring); larger chains take that engine."""
    if n_jobs < 1:
        raise DomainError("n_jobs must be at least 1")
    _check_t_max(t_max)
    _check_n_rep(n_rep)
    start = chain.node_at(float(x0))
    target_node = chain.node_at(float(target))
    keys = _rep_key(seed, np.arange(n_rep))
    if chain.n_nodes > _WORD_NODES:
        res = _walk(chain, np.full(n_rep, start), keys, t_max, mode,
                    exponential_holding, target_node)
        status, hit = res["status"], res["hit"]
    else:
        status, hit = _first_passage(chain, start, keys, t_max, mode,
                                     target_node, exponential_holding)
    hits = int(hit.sum())
    p, lo, hi = _wilson(hits, n_rep)
    counts = {name: int((status == code).sum())
              for code, name in STATUS_NAMES.items()}
    return {"estimate": p, "ci_low": lo, "ci_high": hi, "hits": hits,
            "n_rep": n_rep, "x0": x0, "target": target, "t_max": t_max,
            "seed": seed, "status_counts": counts}


def analytic_hitting(spec: DiffusionSpec, x0: float, a: float, c: float) -> float:
    """Scale-linear probability of hitting c before a from x0 in (a, c),
    all three in the closure of one regular piece."""
    if not (a < x0 < c):
        raise DomainError("need a < x0 < c")
    i, piece = spec.piece_at(x0)
    if piece.kind != REGULAR:
        raise DomainError("analytic hitting needs a regular piece")
    if not (piece.a <= a and c <= piece.b):
        raise DomainError("analytic hitting needs a and c in x0's piece")
    sa = float(evaluate(piece.scale, a))
    sc = float(evaluate(piece.scale, c))
    s0 = float(evaluate(piece.scale, x0))
    return (s0 - sa) / (sc - sa)


def _lebesgue_node_weights(chain: ChainModel) -> np.ndarray:
    """Half the x distance between the neighbours of each walk node."""
    w = np.zeros(chain.n_nodes)
    i = np.nonzero((chain.kind == WALK) & (chain.nbr_left >= 0)
                   & (chain.nbr_right >= 0))[0]
    xl = chain.x[chain.nbr_left[i]]
    xr = chain.x[chain.nbr_right[i]]
    fin = np.isfinite(xl) & np.isfinite(xr)
    w[i[fin]] = 0.5 * (xr[fin] - xl[fin])
    return w


def _at_nodes(fn, name, x, nodes):
    """fn(x[node]) for each entry of nodes, calling fn once per distinct
    node; a value that is not finite is refused, naming ``name``."""
    distinct, inverse = np.unique(nodes, return_inverse=True)
    vals = np.asarray([fn(float(v)) for v in x[distinct]], dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise DomainError(f"{name} must be finite, got {vals[bad[0]]} at "
                          f"x = {float(x[distinct[bad[0]]])}")
    return vals[inverse]


def estimate_symmetry_defect(chain: ChainModel, f, g, t_max: float,
                             n_rep: int, seed: int = 0, n_jobs: int = 1,
                             mode: str = MODE_FULL, weights=None) -> dict:
    """Monte Carlo defect  integral of f(x) E_x g(X_t) - g(x) E_x f(X_t)
    against the node weights.

    Zero for every f, g exactly when the weighting measure symmetrizes
    the process.  ``weights`` is None (``node_mass``, the speed measure
    the chain is reversible for), "lebesgue", or one finite, non-negative
    value per node.  Start nodes are drawn proportionally to the weights;
    each replication contributes W (f(X_0) g(X_t) - f(X_t) g(X_0)) with
    W the total weight, evaluated on a single common path.  Functions
    count as zero after killing.  ``n_rep`` must be at least 1.

    f and g must be finite wherever they are evaluated; a value that is
    not is refused.  A replication that starts where f = g = 0 then adds
    exactly 0, whatever its path, so it is not walked: only the others
    take the engine (replication r with the counter stream of ``run``'s
    replication r), and step-cap warnings count only those.
    """
    _check_n_rep(n_rep)
    refused = ("weights must be None, 'lebesgue' or one value per node, "
               "got {!r:.60}")
    if weights is None:
        w = chain.node_mass.copy()
    elif isinstance(weights, str):
        if weights != "lebesgue":
            raise DomainError(refused.format(weights))
        w = _lebesgue_node_weights(chain)
    else:
        try:
            w = np.asarray(weights, dtype=np.float64)
        except (TypeError, ValueError):
            raise DomainError(refused.format(weights)) from None
        if w.shape != (chain.n_nodes,):
            raise DomainError("weights must give one value per node")
        if not np.all(np.isfinite(w) & (w >= 0)):
            raise DomainError("node weights must be finite and non-negative")
    total = float(w.sum())
    if not (total > 0) or not math.isfinite(total):
        raise DomainError("node weights must have positive finite total")
    cum = np.cumsum(w)
    u0 = _keyed_uniform(_rep_key(seed, np.arange(n_rep)), _STEP_START)
    starts = np.searchsorted(cum, u0 * total, side="right")
    starts = np.minimum(starts, chain.n_nodes - 1).astype(np.int64)
    if n_jobs < 1:
        raise DomainError("n_jobs must be at least 1")
    _check_t_max(t_max)
    _check_mode(mode)
    f0 = _at_nodes(f, "f", chain.x, starts)
    g0 = _at_nodes(g, "g", chain.x, starts)
    moving = np.flatnonzero((f0 != 0) | (g0 != 0))
    res = _walk(chain, starts[moving], _rep_key(seed, moving), t_max, mode,
                False, -1)
    if mode == MODE_KILLED:
        live = res["status"] == ALIVE
    else:
        live = (res["status"] == ALIVE) | (res["status"] == ABSORBED_TRAP)
    # killed paths count as zero; f and g never see their nodes.  Paths
    # not walked keep fT = gT = 0, exact since their f0 = g0 = 0
    ends, at = res["final_node"][live], moving[live]
    fT = np.zeros(n_rep)
    gT = np.zeros(n_rep)
    fT[at] = _at_nodes(f, "f", chain.x, ends)
    gT[at] = _at_nodes(g, "g", chain.x, ends)
    d = total * (f0 * gT - fT * g0)
    mean = float(np.mean(d))
    sd = float(np.std(d, ddof=1)) if n_rep > 1 else 0.0
    half = _Z95 * sd / math.sqrt(n_rep)
    return {"mean": mean, "sd": sd, "ci_low": mean - half,
            "ci_high": mean + half, "n_rep": n_rep, "total_weight": total,
            "t_max": t_max, "seed": seed, "mode": mode}
