import pytest

from cotor.dga import COMM_NAMES, ONE, WORD_NAMES, Element, Monomial
from cotor.engine import Engine

# criterion index -> (label, passed); printed at the end of the run
ACCEPTANCE_RESULTS = {}


def record_acceptance(index: int, label: str, ok: bool):
    ACCEPTANCE_RESULTS[index] = (label, ok)
    return ok


@pytest.fixture(scope="session")
def engine():
    """One shared session engine under the audited sign rule."""
    return Engine(convention="parity")


@pytest.fixture(scope="session")
def full_engine(engine):
    """The session engine with all matrices materialized through degree 81."""
    engine.build_range(81)
    return engine


def class_element(cls, named: dict) -> Element:
    """Reference representative of a basis class: the product of its named
    generators' powers, multiplied out here independently of the engine's
    evaluator."""
    out = Element.one()
    for name, e in cls.powers:
        out = out * (named[name].element ** e)
    return out


def parse_monomial(text: str) -> Monomial:
    """Inverse of Monomial.text()."""
    text = text.strip()
    if text == "1":
        return ONE
    if "|" in text:
        wpart, cpart = text.split("|")
    elif text.split()[0] in WORD_NAMES:
        wpart, cpart = text, ""
    else:
        wpart, cpart = "", text
    word = tuple(WORD_NAMES.index(t) for t in wpart.split())
    exps = [0] * 6
    for tok in cpart.split():
        name, _, e = tok.partition("^")
        exps[COMM_NAMES.index(name)] = int(e) if e else 1
    return Monomial(word, tuple(exps))


def gf3mat(m) -> str:
    """GF3MAT v1 text of any matrix with ``entries`` (also one with an entry
    joining two blocks), by sorting them: the reference the block writer's
    bytes are checked against, and how tests write planted files."""
    lines = [f"GF3MAT v1 {m.n_rows} {m.n_cols} {len(m.entries)}"]
    for (r, c), v in sorted(m.entries.items(),
                            key=lambda rcv: (rcv[0][1], rcv[0][0])):
        lines.append(f"{r} {c} {v}")
    return "\n".join(lines) + "\n"


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for index in sorted(ACCEPTANCE_RESULTS):
        label, ok = ACCEPTANCE_RESULTS[index]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {index}: {verdict} - {label}")
