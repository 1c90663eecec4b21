"""Decision engine for p-rationality of complex cubic and pure imaginary
quartic number fields via fundamental-unit congruences, with a recurrence
screen, family scanners, and a table-reproduction harness."""
