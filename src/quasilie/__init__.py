"""Graded tree groups, free quasi-Lie algebras over Z, and universal
quadratic refinements, with exact integer linear algebra throughout.

Importing the package loads none of its modules; import the one you read
(`quasilie.abelian`, `trees`, `lie`, `treegroups`, `eta`, `quadratic` or
`cli`)."""

__version__ = "0.1.0"
