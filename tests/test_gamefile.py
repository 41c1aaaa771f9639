import numpy as np
import pytest

from smcl import complex_coordination, shapley, simple_coordination
from smcl.gamefile import (
    GameFileError,
    parse_game,
    parse_weights,
    write_game,
    write_weights,
)


class TestGameRoundTrip:
    @pytest.mark.parametrize(
        "make",
        [simple_coordination, shapley,
         lambda: complex_coordination(n=3, delta=0.1)],
    )
    def test_round_trip_identical(self, make, tmp_path):
        game = make()
        path = tmp_path / "game.txt"
        write_game(game, path, comment="round-trip check")
        loaded = parse_game(path)
        assert loaded.action_counts == game.action_counts
        assert np.array_equal(loaded.rewards, game.rewards)

    def test_rewrite_is_byte_identical(self, tmp_path):
        game = shapley()
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_game(game, a)
        write_game(game, b)
        assert a.read_bytes() == b.read_bytes()


def write_lines(tmp_path, lines, name="bad.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestGameParsingErrors:
    def test_missing_joint_action_names_indices(self, tmp_path):
        path = write_lines(tmp_path, [
            "players 2",
            "actions 2 2",
            "rewards",
            "0 0 1 1",
            "0 1 0 0",
            "1 0 0 0",
        ])
        with pytest.raises(GameFileError, match=r"missing.*\(1, 1\)"):
            parse_game(path)

    def test_duplicate_joint_action(self, tmp_path):
        path = write_lines(tmp_path, [
            "players 2",
            "actions 2 2",
            "rewards",
            "0 0 1 1",
            "0 0 2 2",
        ])
        with pytest.raises(GameFileError, match="line 5.*duplicate"):
            parse_game(path)

    def test_index_out_of_range(self, tmp_path):
        path = write_lines(tmp_path, [
            "players 2",
            "actions 2 2",
            "rewards",
            "0 2 1 1",
        ])
        with pytest.raises(GameFileError, match="line 4.*out of range"):
            parse_game(path)

    def test_malformed_number_reports_line(self, tmp_path):
        path = write_lines(tmp_path, [
            "players 2",
            "actions 2 2",
            "rewards",
            "0 0 1 x",
        ])
        with pytest.raises(GameFileError, match="line 4.*malformed"):
            parse_game(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_reward_reports_line(self, tmp_path, bad):
        path = write_lines(tmp_path, [
            "players 2",
            "actions 2 2",
            "rewards",
            "0 0 1 1",
            f"0 1 0 {bad}",
            "1 0 0 0",
            "1 1 1 1",
        ])
        with pytest.raises(GameFileError, match="line 5.*non-finite"):
            parse_game(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = write_lines(tmp_path, [
            "# a simple game",
            "players 2",
            "",
            "actions 2 2   # two each",
            "rewards",
            "0 0 1 1",
            "0 1 0 0",
            "1 0 0 0",
            "1 1 1 1",
        ])
        game = parse_game(path)
        assert game.reward(0, (0, 0)) == 1.0

    def test_empty_file(self, tmp_path):
        path = write_lines(tmp_path, [""])
        with pytest.raises(GameFileError, match="empty"):
            parse_game(path)


class TestWeights:
    def test_round_trip(self, tmp_path, simple_game):
        weights = {
            (0, 1): np.array([0.511, 0.489]),
            (1, 0): np.array([0.489, 0.511]),
        }
        path = tmp_path / "w.txt"
        write_weights(weights, path)
        loaded = parse_weights(path, simple_game)
        for pair, values in weights.items():
            assert np.array_equal(loaded[pair], values)

    def test_missing_pair_detected(self, tmp_path, simple_game):
        path = write_lines(tmp_path, ["weights 0 1", "1.0 1.0"])
        with pytest.raises(GameFileError, match=r"missing pairs.*\(1, 0\)"):
            parse_weights(path, simple_game)

    def test_nonpositive_weight_rejected(self, tmp_path):
        path = write_lines(tmp_path, ["weights 0 1", "1.0 0.0"])
        with pytest.raises(GameFileError, match="line 2.*positive"):
            parse_weights(path)

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_weight_reports_line(self, tmp_path, bad):
        path = write_lines(tmp_path, ["weights 0 1", f"1.0 {bad}"])
        with pytest.raises(GameFileError, match="line 2.*non-finite"):
            parse_weights(path)

    def test_header_without_row(self, tmp_path):
        path = write_lines(tmp_path, ["weights 0 1"])
        with pytest.raises(GameFileError, match="no weight row"):
            parse_weights(path)

    def test_wrong_length_for_game(self, tmp_path, simple_game):
        path = write_lines(tmp_path, [
            "weights 0 1", "1.0 1.0 1.0",
            "weights 1 0", "1.0 1.0",
        ])
        with pytest.raises(GameFileError, match="needs 2 weights"):
            parse_weights(path, simple_game)
