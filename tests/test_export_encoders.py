"""The writers' string encoders against the standard library's.

to_json writes a kind's text as a JSON string through
json.encoder.encode_basestring_ascii, the function json.dumps calls for a
str with its default arguments; _csv_cell quotes a cell as csv.writer
(QUOTE_MINIMAL) does.  Both are checked on arbitrary text, quotes,
backslashes, control characters, line breaks and non-ASCII included, and
the JSON encoder on every region text of the kinds that use it.
"""

import csv
import io
import json
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topograph import enumerate_tree
from topograph.export import KINDS, _csv_cell

# Any code point, surrogates too, with the characters that need escaping or
# quoting drawn often.
TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from('",\\\r\n\t\x00\x1f\x7f√é'))
AWKWARD = ['', '"', '\\', '\x00\x01\x1f', 'a\nb\r\nc', 'say "x", y', '(1+√5)/2', '\ud800', ' ']


def _with_awkward(test):
    for text in AWKWARD:
        test = example(text)(test)
    return settings(max_examples=300, deadline=None)(given(TEXT)(test))


@_with_awkward
def test_the_json_string_encoder_is_json_dumps(text):
    assert encode_basestring_ascii(text) == json.dumps(text)


@pytest.mark.parametrize("kind", ["farey", "markov", "triple", "cf"])
def test_every_region_text_encodes_as_json_dumps(kind):
    spec = KINDS[kind]
    assert spec.json_text is None
    nodes = list(enumerate_tree(*spec.seeds(0), spec.combine, 6))
    regions = [nodes[0].left, nodes[0].right] + [node.value for node in nodes]
    for region in regions:
        text = spec.text(region)
        assert encode_basestring_ascii(text) == json.dumps(text), text
    assert len(regions) == 2 ** 7 + 1


def _csv_row(cell: str) -> str:
    # The default (excel) dialect: its line terminator is "\r\n", so a cell
    # holding either character is quoted.  Given lineterminator="\n" alone,
    # csv.writer would leave a lone "\r" bare.
    buf = io.StringIO()
    csv.writer(buf, quoting=csv.QUOTE_MINIMAL).writerow(["-", cell])
    return buf.getvalue()


@_with_awkward
def test_a_csv_cell_is_quoted_as_csv_writer_quotes_it(text):
    # A cell is never a row's first field, so an empty one is written bare.
    assert "-," + _csv_cell(text) + "\r\n" == _csv_row(text)
