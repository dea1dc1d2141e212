"""Finite simplicial sets with subdivision, desingularization, and the
comparison machinery relating them to nerves of posets."""
