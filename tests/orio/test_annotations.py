"""Tests for Orio annotation parsing."""

import pytest

from repro.errors import ParseError
from repro.orio.annotations import parse_annotated_blocks

GOOD = """
void mm() {
/*@ begin Loop (
  transform Composite(
    tile      = [("i", "T1_I"), ("j", "T1_J")],
    unrolljam = [("i", "U_I"), ("j", "U_J")],
    regtile   = [("j", "RT_J")],
    vector    = "VEC"
  )
) @*/
for (i = 0; i <= N-1; i++)
  for (j = 0; j <= N-1; j++)
    C[i*N+j] = C[i*N+j] + 1;
/*@ end @*/
}
"""


class TestGoodAnnotation:
    def test_spec_extracted(self):
        [ak] = parse_annotated_blocks(GOOD, consts={"N": 16})
        assert ak.spec.tile == (("i", "T1_I"), ("j", "T1_J"))
        assert ak.spec.unrolljam == (("i", "U_I"), ("j", "U_J"))
        assert ak.spec.regtile == (("j", "RT_J"),)
        assert ak.spec.scalars == {"vector": "VEC"}

    def test_nest_parsed_with_consts(self):
        [ak] = parse_annotated_blocks(GOOD, consts={"N": 16})
        assert ak.nest.trip_count() == 16

    def test_parameter_names_in_order(self):
        [ak] = parse_annotated_blocks(GOOD, consts={"N": 16})
        assert ak.spec.parameter_names() == ["T1_I", "T1_J", "U_I", "U_J", "RT_J", "VEC"]

    def test_body_source_preserved(self):
        [ak] = parse_annotated_blocks(GOOD, consts={"N": 4})
        assert "C[i*N+j]" in ak.body_source


class TestMultiBlock:
    TWO = GOOD + GOOD.replace("void mm() {", "").replace("}", "")

    def test_blocks_in_order(self):
        blocks = parse_annotated_blocks(self.TWO, consts={"N": 4})
        assert len(blocks) == 2


class TestBadAnnotations:
    def test_no_block(self):
        with pytest.raises(ParseError):
            parse_annotated_blocks("for (i = 0; i < 4; i++) A[i] = 0;")

    def _with_header(self, header: str) -> str:
        return (
            f"/*@ begin Loop ({header}) @*/\n"
            "for (i = 0; i < 4; i++) A[i] = 0;\n"
            "/*@ end @*/"
        )

    def test_missing_transform_keyword(self):
        with pytest.raises(ParseError):
            parse_annotated_blocks(self._with_header("Composite(tile=[])"))

    def test_unknown_transform(self):
        with pytest.raises(ParseError):
            parse_annotated_blocks(self._with_header("transform Fuse(tile=[])"))

    def test_unknown_option(self):
        with pytest.raises(ParseError):
            parse_annotated_blocks(
                self._with_header('transform Composite(fusion=[("i", "F")])')
            )

    def test_positional_args_rejected(self):
        with pytest.raises(ParseError):
            parse_annotated_blocks(self._with_header('transform Composite([("i", "T")])'))

    def test_non_pair_entries(self):
        with pytest.raises(ParseError):
            parse_annotated_blocks(
                self._with_header('transform Composite(tile=[("i", "T", 3)])')
            )

    def test_duplicate_loop_vars(self):
        with pytest.raises(ParseError):
            parse_annotated_blocks(
                self._with_header('transform Composite(tile=[("i", "A"), ("i", "B")])')
            )

    def test_unknown_loop_var(self):
        with pytest.raises(ParseError):
            parse_annotated_blocks(
                self._with_header('transform Composite(tile=[("z", "T")])')
            )

    def test_scalar_option_must_be_string(self):
        with pytest.raises(ParseError):
            parse_annotated_blocks(self._with_header("transform Composite(vector=3)"))

    def test_malformed_python_syntax(self):
        with pytest.raises(ParseError):
            parse_annotated_blocks(self._with_header("transform Composite(tile=[(]"))
