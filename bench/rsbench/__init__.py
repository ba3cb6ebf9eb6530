"""Benchmark for the rainbowsets package: seeded corpora, independent
checkers, untraced timing and a traced per-module run."""
