"""Threat playbook: Section IV-G, scenario by scenario (see ``repro.threats``)."""
from repro.threats import main

if __name__ == "__main__":
    main()
