"""Solvers, reductions and verification tools for impartial games on graphs."""

from . import arena, graphs, kernel, matching, polysolve, posfile, reductions, search
