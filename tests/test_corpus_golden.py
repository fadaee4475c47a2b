"""The bundled corpus's reports and GAEL text, byte for byte.

`tests/fixtures/corpus_golden.json` holds every `corpus/*.lam` report
(without timings) and its GAEL text.  A change that moves any output
must regenerate it on purpose and say why:

    PYTHONPATH=src python tests/test_corpus_golden.py
"""

import json
from pathlib import Path

from skic import cli_pipeline as CP

from conftest import CORPUS_DIR, corpus_sources

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "corpus_golden.json"


def _dump(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=True) + "\n"


def golden_document() -> dict:
    gael = {
        pid: CP.run_pipeline(source, program_id=pid).gael_text
        for pid, source in corpus_sources()
    }
    return {"corpus": CP.run_corpus(CORPUS_DIR).to_dict(include_timings=False), "gael": gael}


def test_corpus_reproduces_golden_reports_and_gael():
    assert _dump(golden_document()) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(_dump(golden_document()), encoding="utf-8")
