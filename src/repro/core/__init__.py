"""The paper's contribution: the ELSC table-based scheduler."""

from .elsc import ELSCScheduler
from .table import ELSCRunqueueTable

__all__ = ["ELSCScheduler", "ELSCRunqueueTable"]
