"""REP006 fixture: pickle-family serialisation in library code."""

import json
import pickle  # expect: REP006
import marshal as wire  # expect: REP006
from shelve import open as open_shelf  # expect: REP006

import numpy as np


def load_state(path):
    with open(path, "rb") as handle:
        return pickle.load(handle)


def load_buffers(path):
    return np.load(path, allow_pickle=True)  # expect: REP006


def load_buffers_safely(path):
    return np.load(path, allow_pickle=False)


def load_header(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle), wire, open_shelf
