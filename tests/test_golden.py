"""The commands' outputs held to the goldens under tests/golden/: text and
exit codes exactly, numbers to one unit in the 12th significant digit
(make_golden.py, which also rewrites them)."""

import pytest

import make_golden


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return make_golden.outputs(tmp_path_factory.mktemp("golden"))


def test_every_output_has_a_golden(outputs):
    assert sorted(outputs) == make_golden.golden_names()


@pytest.mark.parametrize("name", make_golden.golden_names())
def test_output_matches_its_golden(outputs, name):
    expected = (make_golden.GOLDEN_DIR / name).read_text(encoding="utf-8")
    got = outputs.get(name, "")
    # byte-identity is printed (pytest -s shows it), not required
    print(f"{name}: {'byte-identical' if got == expected else 'not byte-identical'}")
    assert make_golden.mismatches(expected, got) == []


@pytest.mark.parametrize("expected, got, ok", [
    ("0.123456789012", "0.123456789013", True),  # the 12th digit, by one unit
    ("0.123456789012", "0.123456789014", False),
    ("1e-300,inf", "1.00000000001e-300,inf", True),
    ("0", "8.9e-16", False),  # no drift is allowed off an exact 0
    ("inf", "1e308", False),
    ("mu12: 1", "mu13: 1", False),  # the text around the numbers is exact
    ('"exit": 1', '"exit": 2', False),
    ("a\nb", "a", False),
])
def test_numbers_compare_to_their_12th_significant_digit(expected, got, ok):
    assert (make_golden.mismatches(expected, got) == []) is ok
