raise ImportError("cffi is hidden: vropt runs without its compiled kernel")
