import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest

from rkdual.corpus import CORPUS_NAMES

from oracles import corpus_kspace


@pytest.fixture(scope="session")
def corpus():
    return {name: corpus_kspace(name) for name in CORPUS_NAMES}


@pytest.fixture(scope="session")
def edge_ks():
    return corpus_kspace("edge")


@pytest.fixture(scope="session")
def hex_ks():
    return corpus_kspace("hex")


@pytest.fixture(scope="session")
def id2_ks():
    return corpus_kspace("id2")


@pytest.fixture(scope="session")
def tri_ks():
    return corpus_kspace("tri")
