"""Fuzzing of the readers of untrusted text: matrix text, code files and
scenario configs. Each may return a parsed value or raise ValueError, which
``npcode`` reports as ``error:`` with exit 2; nothing else may escape."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from npcode import codes, gf2
from npcode.cli import ScenarioConfig, _CONFIG_KEYS, main, parse_config
from npcode.codes import ProtectionCode, format_code_file, parse_code_file
from npcode.gf2 import BitMatrix

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

SMALL_CODES = [codes.single_parity_code(4), codes.hamming_code(3), codes.bch_code(15, 2)]


def mutated(text: str) -> st.SearchStrategy[str]:
    """``text`` with a few characters replaced, inserted or deleted."""
    edit = st.tuples(
        st.integers(0, len(text)),
        st.sampled_from(["replace", "insert", "delete"]),
        st.sampled_from(list("01 \n9x-") + [" 1", "\n\n", "00"]),
    )

    def apply(edits):
        out = text
        for at, kind, piece in edits:
            at = min(at, len(out))
            if kind == "insert":
                out = out[:at] + piece + out[at:]
            elif kind == "replace":
                out = out[:at] + piece + out[at + 1:]
            else:
                out = out[:at] + out[at + 1:]
        return out

    return st.lists(edit, max_size=3).map(apply)


matrix_texts = st.one_of(
    st.text(alphabet="01 \n2-x", max_size=60),
    st.tuples(
        st.integers(0, 5), st.integers(0, 5),
        st.lists(st.text(alphabet="01", max_size=6), max_size=6),
    ).map(lambda t: f"{t[0]} {t[1]}\n" + "\n".join(t[2]) + "\n"),
    st.sampled_from(SMALL_CODES).flatmap(lambda c: mutated(c.generator.to_text())),
    st.integers(1, 6).flatmap(
        lambda cols: st.lists(st.integers(0, (1 << cols) - 1), min_size=1, max_size=5).map(
            lambda words: BitMatrix.from_row_words(words, cols).to_text()
        )
    ).flatmap(mutated),
)

code_file_texts = st.one_of(
    st.sampled_from(SMALL_CODES).flatmap(lambda c: mutated(format_code_file(c))),
    st.tuples(
        st.integers(0, 16), st.integers(0, 12), st.integers(0, 8),
        st.sampled_from(["verified", "declared", "checked"]),
        matrix_texts,
    ).map(lambda t: f"NPC {t[0]} {t[1]} {t[2]} {t[3]}\n{t[4]}"),
    st.text(max_size=40),
)

config_lines = st.one_of(
    st.tuples(
        st.sampled_from(sorted(_CONFIG_KEYS) + ["colour", ""]),
        st.one_of(
            st.integers(-3, 40).map(str),
            st.sampled_from(["none", "fixed", "random", "bch", "parity", "1,2", "1,,x", "", "#"]),
            st.text(max_size=8),
        ),
    ).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(alphabet="abc=#, 1\t", max_size=12),
)
config_texts = st.lists(config_lines, max_size=8).map("\n".join)


@FUZZ
@given(matrix_texts)
def test_matrix_text_parses_or_is_rejected(text):
    try:
        m = BitMatrix.from_text(text)
    except ValueError:
        return
    assert BitMatrix.from_text(m.to_text()) == m


@FUZZ
@given(code_file_texts)
def test_code_file_parses_or_is_rejected(text):
    try:
        code = parse_code_file(text)
    except ValueError:
        return
    assert isinstance(code, ProtectionCode)
    assert gf2.min_distance(code.generator) == code.d_min  # every k here is measurable
    assert parse_code_file(format_code_file(code)) == code


@FUZZ
@given(code_file_texts)
def test_verify_of_any_code_file_exits_0_1_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "code.npc"
        path.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["verify", str(path), "--t", "1"])
    assert rc in (0, 1, 2)
    assert (rc == 2) == err.getvalue().startswith("error:")


@FUZZ
@given(config_texts)
def test_config_parses_or_is_rejected(text):
    try:
        cfg = parse_config(text)
    except ValueError:
        return
    assert isinstance(cfg, ScenarioConfig)
    assert cfg.rounds >= 1 and cfg.failure_model in ("none", "fixed", "random")
