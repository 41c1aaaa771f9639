"""Plain-text formats for games and initial weights.

Game file (UTF-8, LF, ``#`` comments, whitespace-separated):

    players I
    actions n1 n2 ... nI
    rewards
    a1 a2 ... aI r1 r2 ... rI     # one line per joint action, 0-based

Weights file:

    weights i j                   # ordered pair (observer, opponent)
    w1 w2 ... w_{nj}              # strictly positive; normalised on load
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from .game import Game
from .learners import ordered_pairs


class GameFileError(ValueError):
    """Parse failure; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


def _tokenised_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield number, text.split()


def _parse_floats(tokens, line):
    values = []
    for token in tokens:
        try:
            value = float(token)
        except ValueError:
            raise GameFileError(f"malformed number {token!r}", line) from None
        if not math.isfinite(value):
            raise GameFileError(f"non-finite number {token!r}", line)
        values.append(value)
    return values


def _parse_ints(tokens, line):
    values = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError:
            raise GameFileError(f"malformed integer {token!r}", line) from None
    return values


def parse_game(path) -> Game:
    """Read a game file, checking every joint action appears exactly once."""
    lines = _tokenised_lines(path)

    try:
        line, tokens = next(lines)
    except StopIteration:
        raise GameFileError("empty game file") from None
    if tokens[0] != "players" or len(tokens) != 2:
        raise GameFileError("expected 'players I'", line)
    (num_players,) = _parse_ints(tokens[1:], line)
    if num_players < 2:
        raise GameFileError("a game needs at least two players", line)

    try:
        line, tokens = next(lines)
    except StopIteration:
        raise GameFileError("missing 'actions' line") from None
    if tokens[0] != "actions" or len(tokens) != num_players + 1:
        raise GameFileError(
            f"expected 'actions' with {num_players} counts", line
        )
    counts = _parse_ints(tokens[1:], line)
    if any(c < 1 for c in counts):
        raise GameFileError("action counts must be positive", line)

    try:
        line, tokens = next(lines)
    except StopIteration:
        raise GameFileError("missing 'rewards' line") from None
    if tokens != ["rewards"]:
        raise GameFileError("expected 'rewards'", line)

    total = int(np.prod(counts))
    rewards = np.full((num_players, total), np.nan)
    seen = set()
    for line, tokens in lines:
        if len(tokens) != 2 * num_players:
            raise GameFileError(
                f"expected {num_players} action indices and "
                f"{num_players} rewards",
                line,
            )
        action = _parse_ints(tokens[:num_players], line)
        for i, (a, n) in enumerate(zip(action, counts)):
            if not 0 <= a < n:
                raise GameFileError(
                    f"action index {a} out of range for player {i}", line
                )
        flat = int(np.ravel_multi_index(action, counts))
        if flat in seen:
            raise GameFileError(
                f"duplicate joint action {tuple(action)}", line
            )
        seen.add(flat)
        rewards[:, flat] = _parse_floats(tokens[num_players:], line)

    if len(seen) != total:
        missing = [
            tuple(int(x) for x in np.unravel_index(flat, counts))
            for flat in range(total)
            if flat not in seen
        ]
        shown = ", ".join(str(a) for a in missing[:5])
        more = "" if len(missing) <= 5 else f" (+{len(missing) - 5} more)"
        raise GameFileError(f"missing joint actions: {shown}{more}")
    return Game(action_counts=tuple(counts), rewards=rewards)


def atomic_write_text(path, text: str) -> None:
    """Write via a temporary file and rename, so readers never see partials."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_game(game: Game, path, comment: str | None = None) -> None:
    """Write a game in the plain-text format; floats keep full precision."""
    out = []
    if comment:
        out.append(f"# {comment}")
    out.append(f"players {game.num_players}")
    out.append("actions " + " ".join(str(c) for c in game.action_counts))
    out.append("rewards")
    for flat, action in enumerate(game.joint_actions()):
        cells = [str(a) for a in action]
        cells += [repr(float(game.rewards[i][flat]))
                  for i in range(game.num_players)]
        out.append(" ".join(cells))
    atomic_write_text(path, "\n".join(out) + "\n")


def parse_weights(path, game: Game | None = None) -> dict:
    """Read per-pair initial weights; positive entries, normalised later.

    When ``game`` is given, pair indices and lengths are validated and all
    ordered pairs must be present.
    """
    out = {}
    pending = None  # (pair, line) awaiting its value row
    for line, tokens in _tokenised_lines(path):
        if tokens[0] == "weights":
            if pending is not None:
                raise GameFileError(
                    f"pair {pending[0]} has no weight row", pending[1]
                )
            if len(tokens) != 3:
                raise GameFileError("expected 'weights i j'", line)
            i, j = _parse_ints(tokens[1:], line)
            if i == j:
                raise GameFileError("observer and opponent must differ", line)
            if (i, j) in out:
                raise GameFileError(f"duplicate pair ({i}, {j})", line)
            pending = ((i, j), line)
        else:
            if pending is None:
                raise GameFileError("weight row without 'weights i j'", line)
            values = np.array(_parse_floats(tokens, line))
            if not (values > 0).all():
                raise GameFileError("weights must be strictly positive", line)
            out[pending[0]] = values
            pending = None
    if pending is not None:
        raise GameFileError(
            f"pair {pending[0]} has no weight row", pending[1]
        )
    if game is not None:
        required = set(ordered_pairs(game.num_players))
        if set(out) != required:
            missing = sorted(required - set(out))
            extra = sorted(set(out) - required)
            parts = []
            if missing:
                parts.append(f"missing pairs {missing}")
            if extra:
                parts.append(f"unknown pairs {extra}")
            raise GameFileError("; ".join(parts))
        for (i, j), values in out.items():
            if values.shape != (game.action_counts[j],):
                raise GameFileError(
                    f"pair ({i}, {j}) needs {game.action_counts[j]} weights"
                )
    return out


def write_weights(weights: dict, path) -> None:
    out = []
    for (i, j), values in sorted(weights.items()):
        out.append(f"weights {i} {j}")
        out.append(" ".join(repr(float(v)) for v in values))
    atomic_write_text(path, "\n".join(out) + "\n")
