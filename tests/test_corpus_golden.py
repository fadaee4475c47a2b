"""The bundled corpus's reports and emitted text, byte for byte.

`tests/fixtures/corpus_golden.json` holds every `corpus/*.lam` report
(without timings), its GAEL, lambda and pseudocode text, and what
`skic explain` prints for its GAEL text.  `higher_order_golden.json`
holds the corpus report (without timings) of
`tests/fixtures/higher_order/*.lam`: programs whose items take or return
functions, or are under-applied conditionals.  A change that moves any
output must regenerate them on purpose and say why:

    PYTHONPATH=src python tests/test_corpus_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

from skic import cli_pipeline as CP
from skic import lambda_ir as L
from skic import mdl_opt as MD
from skic import ski_core as SK

from conftest import CORPUS_DIR, corpus_sources, ref_probe_key, tuple_keys
from test_ski_core import _key_outcome

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = FIXTURES / "corpus_golden.json"
HIGHER_ORDER_GOLDEN = FIXTURES / "higher_order_golden.json"


def _dump(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=True) + "\n"


def _explain_output(gael_text: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "program.gael"
        path.write_text(gael_text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert CP.main(["explain", str(path)]) == 0
    return out.getvalue()


def corpus_report(directory: Path) -> dict:
    report = CP.run_corpus(directory).to_dict()
    for program in report["programs"]:
        del program["timings"]
    return report


def golden_document() -> dict:
    doc = {"corpus": corpus_report(CORPUS_DIR)}
    for key in ("gael", "lambda", "pseudocode", "explain"):
        doc[key] = {}
    for pid, source in corpus_sources():
        result = CP.run_pipeline(source, program_id=pid)
        doc["gael"][pid] = result.gael_text
        doc["lambda"][pid] = result.lambda_text
        doc["pseudocode"][pid] = result.pseudocode_text
        doc["explain"][pid] = _explain_output(result.gael_text)
    return doc


def test_corpus_reproduces_golden_reports_and_gael():
    assert _dump(golden_document()) == GOLDEN.read_text(encoding="utf-8")


def test_higher_order_programs_reproduce_golden_report():
    report = corpus_report(FIXTURES / "higher_order")
    assert _dump(report) == HIGHER_ORDER_GOLDEN.read_text(encoding="utf-8")


def test_higher_order_probes_match_the_reference_key():
    # a second opinion from the test-side passes, on every tuple of every
    # item and both sides: these programs are where lane results that are
    # not literals are keyed, stuck literal applications as a group key
    # split by `_lane_keys` (03_church_mul, 04_twice_lambda) and the rest
    # split per lane and finished
    cfg, split, walked = MD.MdlConfig(), [], []
    lanes, lane_keys = SK._lanes, SK._lane_keys

    def recorded(t, n):
        split.append(lanes(t, n))
        return split[-1]

    def keyed(key, n):
        walked.append((path.stem, n, lane_keys(key, n)))
        return walked[-1][2]

    for path in sorted((FIXTURES / "higher_order").glob("*.lam")):
        source = path.read_text(encoding="utf-8")
        encoded = CP.run_pipeline(source, cfg, path.stem).plan.encoded
        for p, s, tuples in MD.item_checks(L.parse_program(source), encoded, cfg):
            for side in (p, s):
                with mock.patch.object(SK, "_lanes", recorded), mock.patch.object(SK, "_lane_keys", keyed):
                    keys = dict(zip(tuples, tuple_keys(SK.probe_keys(side, tuples, cfg.fuel))))
                for tup in tuples:
                    expected = _key_outcome(ref_probe_key, side, tup, cfg.fuel)
                    assert _key_outcome(lambda *_: keys[tup], side, tup, cfg.fuel) == expected, (path.name, tup)
    # a result that held lane values comes back as distinct terms, one per lane
    assert any(terms[0] is not terms[1] and type(terms[0]) not in (L.IntLit, L.BoolLit)
               for terms in split if len(terms) > 1)
    # and a stuck literal application's lanes are keyed from its group key
    stuck = {stem for stem, n, keys in walked if n > 1 and type(keys[0]) is tuple and keys[0] != keys[1]}
    assert stuck == {"03_church_mul", "04_twice_lambda"}

if __name__ == "__main__":
    GOLDEN.write_text(_dump(golden_document()), encoding="utf-8")
    HIGHER_ORDER_GOLDEN.write_text(_dump(corpus_report(FIXTURES / "higher_order")), encoding="utf-8")
