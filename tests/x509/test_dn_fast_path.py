"""The plain-text DN parser is the escape-aware parser, minus the loops.

``DistinguishedName._parse_uncached`` sends ASCII text without a
backslash to ``_parse_plain`` (``str.split``/``strip``) and everything
else to ``_parse_escaped``.  These properties generate DNs with
escapes, ``+`` multi-valued RDNs, surrounding spaces, OID attribute
types, non-ASCII values and malformed components, and check that the
two parsers agree — same attributes, or the same ``DNParseError``.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.x509.dn import AttributeTypeAndValue, DistinguishedName, DNParseError

_TYPES = st.sampled_from(["CN", "O", "OU", "C", "cn", "2.5.4.3", "2.5.4.10",
                          "0.9.2342.19200300.100.1.25", "1.2.3.4",
                          " CN", "O ", "", " "])
_SPACES = st.sampled_from(["", " ", "  ", "\t"])
_PLAIN_CHARS = "abcXYZ019 .-'=,+#\"<>;*\t"
_ANY_CHARS = _PLAIN_CHARS + "\\é中\u00a0\r\n"


def _values(chars: str) -> st.SearchStrategy[str]:
    return st.text(alphabet=chars, max_size=8)


@st.composite
def _dn_text(draw, chars: str) -> str:
    """An RFC 4514-ish string: RDNs of ``+``-joined assertions."""
    rdns = []
    for _ in range(draw(st.integers(0, 4))):
        atvs = []
        for _ in range(draw(st.integers(1, 3))):
            attr_type, value = draw(_TYPES), draw(_values(chars))
            if "\\" in chars and draw(st.booleans()):
                atv = AttributeTypeAndValue(attr_type, value).rfc4514()
            else:
                atv = f"{attr_type}={value}"
            if draw(st.integers(0, 9)) == 0:  # malformed: no '='
                atv = atv.replace("=", "")
            atvs.append(draw(_SPACES) + atv + draw(_SPACES))
        rdns.append("+".join(atvs))
    edges = st.sampled_from(["", " ", "  ", "\r\n", " \n", "\r"])
    return draw(edges) + ",".join(rdns) + draw(edges)


_PLAIN = st.one_of(_dn_text(_PLAIN_CHARS), _values(_PLAIN_CHARS + "\r\n"))
_ANY = st.one_of(_dn_text(_ANY_CHARS), _values(_ANY_CHARS))


def _outcome(parse, text: str):
    try:
        return parse(text).attributes
    except DNParseError as exc:
        return ("DNParseError", str(exc))


def _reference(text: str):
    """The escape-aware parser on exactly what ``parse`` would feed it."""
    return DistinguishedName._parse_escaped(text.strip("\r\n"))


@settings(max_examples=400)
@given(text=_PLAIN)
@example("CN=a,,O=b").via("empty RDN")
@example("CN=a,O").via("missing '='")
@example("=a").via("empty attribute type")
@example("CN=a+ +O=b").via("empty multi-valued component")
@example(" 2.5.4.3 = x , O=y ").via("OID type, surrounding spaces")
def test_plain_parser_equals_escape_aware_parser(text):
    stripped = text.strip("\r\n")
    assert "\\" not in stripped and stripped.isascii()
    assert _outcome(DistinguishedName._parse_plain, stripped) == \
        _outcome(DistinguishedName._parse_escaped, stripped)


@settings(max_examples=400)
@given(text=_ANY)
def test_dispatching_parser_equals_escape_aware_parser(text):
    assert _outcome(DistinguishedName._parse_uncached, text) == \
        _outcome(_reference, text)
