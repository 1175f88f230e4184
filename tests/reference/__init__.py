"""Independent reference models the simulator is checked against."""
