import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ginv.algebra import AlgebraElement
from ginv.errors import WireFormatError
from ginv.sampling import random_element
from ginv.serialization import element_to_dict, parse_element, serialize_element


class TestParse:
    def test_scalar(self):
        a = parse_element('{"shape":[1],"blocks":[[[[2.0,0.0]]]]}')
        assert a.shape == (1,)
        assert a.blocks[0][0, 0] == 2.0

    def test_shift_matrix(self):
        a = parse_element('{"shape":[2],"blocks":[[[[0,0],[1,0]],[[0,0],[0,0]]]]}')
        want = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.array_equal(a.blocks[0], want)

    def test_block_dimension_mismatch(self):
        for doc in ('{"shape":[2],"blocks":[[[[1,0]]]]}',
                    '{"shape":[true],"blocks":[[[[1,0]]]]}'):
            with pytest.raises(WireFormatError):
                parse_element(doc)

    def test_invalid_json_carries_location(self):
        with pytest.raises(WireFormatError) as err:
            parse_element('{"shape":[1],')
        assert "line" in err.value.context

    def test_missing_field(self):
        with pytest.raises(WireFormatError):
            parse_element('{"shape":[1]}')

    def test_bad_entry(self):
        for doc in ('{"shape":[1],"blocks":[[[["x",0]]]]}',
                    '{"shape":[1],"blocks":[[[[true,false]]]]}'):
            with pytest.raises(WireFormatError):
                parse_element(doc)

    def test_nonfinite_rejected(self):
        with pytest.raises(WireFormatError):
            parse_element('{"shape":[1],"blocks":[[[[Infinity,0]]]]}')

    @pytest.mark.parametrize("text, message", [
        pytest.param('{"shape":[1],"blocks":[[[[1' + "0" * 400 + ',0]]]]}',
                     "out of the double range", id="past-the-double-range"),
        pytest.param('{"shape":[1],"blocks":[[[[1' + "0" * 5000 + ',0]]]]}',
                     "integer string conversion", id="past-the-digit-limit"),
        pytest.param("[" * 100000, "nest too deeply", id="deep-nesting"),
    ])
    def test_oversized_literals_and_nesting_rejected(self, text, message):
        with pytest.raises(WireFormatError, match=message):
            parse_element(text)


# integers up to 401 digits: past the double range, within json.dumps' digit limit
json_numbers = st.integers(-(10**400), 10**400) | st.floats()
json_values = st.recursive(
    st.none() | st.booleans() | json_numbers | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=12,
)


@st.composite
def wire_documents(draw):
    """A wire document's skeleton, any part of which may be off."""
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    entry = st.lists(json_numbers, min_size=2, max_size=2) | json_values
    blocks = [[[draw(entry) for _ in range(n)] for _ in range(n)] for n in shape]
    return json.dumps({"shape": draw(st.just(shape) | json_values),
                       "blocks": draw(st.just(blocks) | json_values)})


#: any text: arbitrary, any JSON value, a near-miss document, or deep nesting
wire_texts = (st.text() | json_values.map(json.dumps) | wire_documents()
              | st.integers(1, 5000).map(lambda depth: "[" * depth + "]" * depth))


@given(wire_texts)
@settings(max_examples=200, deadline=None)
def test_any_text_parses_or_raises_wire_format_error(text):
    try:
        parse_element(text)
    except WireFormatError:
        pass


@given(st.integers(0, 2**32 - 1), st.sampled_from([(1,), (2,), (3,), (2, 3)]))
@settings(max_examples=30, deadline=None)
def test_round_trip_bit_exact(seed, shape):
    a = random_element(np.random.default_rng(seed), shape)
    back = parse_element(serialize_element(a))
    assert back.shape == a.shape
    for b1, b2 in zip(back.blocks, a.blocks):
        assert np.array_equal(b1, b2)


def test_dict_form_is_plain_data():
    a = AlgebraElement.identity((2,))
    doc = element_to_dict(a)
    assert doc["shape"] == [2]
    assert doc["blocks"][0][0][0] == [1.0, 0.0]
