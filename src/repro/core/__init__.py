"""Core algorithms of the FTPMfTS reproduction.

The data-transformation phase (``symbolize``, ``events``, ``sequences``)
is pure Spark DataFrame code; the driver miners (``htpgm``, ``ahtpgm``)
operate on a :class:`repro.core.seqdb.SequenceDatabase` built from the
Spark ``D_SEQ`` DataFrame, and the ``distributed`` miner runs the same
level-wise mining on ``D_SEQ`` partitioned by sequence.
"""
