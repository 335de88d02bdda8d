from __future__ import annotations

import os

import pytest

from redsem import load_language

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
LAMBDA_FILE = os.path.join(FIXTURES, "lambda.sexp")
LAMBDA_ND_FILE = os.path.join(FIXTURES, "lambda_nd.sexp")
LEFTREC_FILE = os.path.join(FIXTURES, "leftrec.sexp")
CORPUS_FILE = os.path.join(FIXTURES, "corpus.sexp")


@pytest.fixture(scope="session")
def lam():
    return load_language(LAMBDA_FILE)


@pytest.fixture(scope="session")
def lam_nd():
    return load_language(LAMBDA_ND_FILE)


@pytest.fixture(scope="session")
def random_corpus():
    from genterms import corpus

    return corpus(seed=12345, n=500)
