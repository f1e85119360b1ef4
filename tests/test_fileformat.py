from fractions import Fraction

import pytest

from arrcomp import (
    DimensionMismatchError,
    DuplicateHyperplaneError,
    ParseError,
    ZeroNormalError,
    braid_arrangement,
    gauss,
    load_arrangement_file,
    make_arrangement,
    parse_arrangement,
    serialize_arrangement,
)
from conftest import CORPUS_DIR


class TestParse:
    def test_braid2_forms(self):
        text = "arrangement 3\n1 -1 0 ; 0\n1 0 -1 ; 0\n0 1 -1 ; 0\n"
        parsed = parse_arrangement(text)
        reference = braid_arrangement(2)
        assert parsed.ambient_dim == reference.ambient_dim
        assert parsed.hyperplanes == reference.hyperplanes
        assert parsed.labels == ()

    def test_single_point(self):
        parsed = parse_arrangement("arrangement 1\n1 ; 0\n")
        assert parsed.size == 1
        assert parsed.ambient_dim == 1

    def test_fraction_and_complex_tokens(self):
        parsed = parse_arrangement("arrangement 2\n1/2 0:1 ; -3/4:2\n")
        h = parsed.hyperplanes[0]
        assert h.normal == (gauss(Fraction(1, 2), 0), gauss(0, 1))
        assert h.constant == gauss(Fraction(-3, 4), 2)

    def test_comments_and_blank_lines(self):
        text = "# heading\n\narrangement 2  # trailing\n\n1 0 ; 0\n# middle\n0 1 ; 0\n"
        assert parse_arrangement(text).size == 2

    def test_trailing_comment_becomes_label(self):
        text = "arrangement 2\n1 0 ; 0  # first\n0 1 ; 0\n"
        parsed = parse_arrangement(text)
        assert parsed.labels == ("first", "H1")

    def test_missing_header(self):
        with pytest.raises(ParseError) as info:
            parse_arrangement("1 ; 0\n")
        assert info.value.line == 1

    def test_empty_text(self):
        with pytest.raises(ParseError):
            parse_arrangement("")

    def test_bad_dimension(self):
        with pytest.raises(ParseError):
            parse_arrangement("arrangement zero\n")
        with pytest.raises(ParseError):
            parse_arrangement("arrangement 0\n")
        # a superscript digit passes str.isdigit() but int() rejects it
        with pytest.raises(ParseError) as info:
            parse_arrangement("arrangement \u00b2\n1 ; 0\n")
        assert (info.value.line, info.value.column) == (1, 13)

    def test_zero_normal_with_line(self):
        with pytest.raises(ZeroNormalError) as info:
            parse_arrangement("arrangement 2\n0 0 ; 1\n")
        assert "line 2" in str(info.value)

    def test_dimension_mismatch_with_line(self):
        with pytest.raises(DimensionMismatchError) as info:
            parse_arrangement("arrangement 3\n1 0 ; 0\n")
        assert "line 2" in str(info.value)

    def test_duplicate_with_both_lines(self):
        with pytest.raises(DuplicateHyperplaneError) as info:
            parse_arrangement("arrangement 1\n1 ; 0\n2 ; 0\n")
        assert "line 3" in str(info.value)
        assert "line 2" in str(info.value)

    def test_missing_semicolon(self):
        with pytest.raises(ParseError) as info:
            parse_arrangement("arrangement 1\n1 0\n")
        assert info.value.line == 2

    def test_missing_constant(self):
        with pytest.raises(ParseError):
            parse_arrangement("arrangement 1\n1 ;\n")

    def test_extra_token(self):
        with pytest.raises(ParseError) as info:
            parse_arrangement("arrangement 1\n1 ; 0 7\n")
        assert info.value.column is not None

    def test_double_semicolon(self):
        with pytest.raises(ParseError):
            parse_arrangement("arrangement 1\n1 ; ; 0\n")

    def test_bad_token(self):
        with pytest.raises(ParseError) as info:
            parse_arrangement("arrangement 1\nx ; 0\n")
        assert info.value.line == 2
        assert info.value.column == 1

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_arrangement("arrangement 1\n1/0 ; 0\n")

    @pytest.mark.parametrize(
        "text, where",
        [
            ("arrangement 1\n{ones} ; 0\n", (2, 1)),
            ("arrangement 1\n1/{ones} ; 0\n", (2, 1)),
            ("arrangement 1\n1:{ones} ; 0\n", (2, 1)),
            ("arrangement {ones}\n1 ; 0\n", (1, 13)),
        ],
        ids=["coefficient", "denominator", "imaginary", "header"],
    )
    def test_integer_past_the_digit_limit(self, text, where):
        # CPython refuses to convert integer strings of more than 4300 digits
        with pytest.raises(ParseError) as info:
            parse_arrangement(text.format(ones="1" * 5000))
        assert (info.value.line, info.value.column) == where
        assert "too many digits" in str(info.value)

    def test_attached_semicolon(self):
        parsed = parse_arrangement("arrangement 2\n1 0; 0\n")
        assert parsed.size == 1


class TestSerialize:
    def test_braid2_exact_text(self):
        text = serialize_arrangement(braid_arrangement(2))
        assert text == (
            "arrangement 3\n"
            "1 -1 0 ; 0  # H_{01}\n"
            "1 0 -1 ; 0  # H_{02}\n"
            "0 1 -1 ; 0  # H_{12}\n"
        )

    def test_complex_values(self):
        a = make_arrangement(2, [((1, gauss(0, 1)), gauss(Fraction(1, 2), -1))])
        assert serialize_arrangement(a) == "arrangement 2\n1 0:1 ; 1/2:-1\n"

    def test_round_trip_programmatic(self):
        a = make_arrangement(2, [((1, 2), 3), ((Fraction(1, 3), -1), 0)])
        assert parse_arrangement(serialize_arrangement(a)) == a

    def test_round_trip_labeled(self):
        for n in (1, 2, 3):
            a = braid_arrangement(n)
            assert parse_arrangement(serialize_arrangement(a)) == a

    def test_round_trip_corpus(self, corpus_texts):
        for name, text in corpus_texts.items():
            parsed = parse_arrangement(text)
            again = parse_arrangement(serialize_arrangement(parsed))
            assert again == parsed, name


class TestLoadFile:
    def test_source_lines(self, tmp_path):
        path = tmp_path / "sample.arr"
        path.write_text("# intro\narrangement 2\n\n1 0 ; 0\n# gap\n0 1 ; 1\n")
        loaded = load_arrangement_file(str(path))
        assert loaded.path == str(path)
        assert loaded.arrangement.size == 2
        assert loaded.source_lines == (4, 6)

    def test_corpus_files_load(self):
        for path in sorted(CORPUS_DIR.glob("*.arr")):
            loaded = load_arrangement_file(str(path))
            assert loaded.arrangement.ambient_dim >= 1
