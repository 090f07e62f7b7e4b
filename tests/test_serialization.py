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
