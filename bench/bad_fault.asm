# Loads from an address outside simulated memory: a memory fault.
main:
        lui   $t0, 0x7fff
        lw    $v0, 0($t0)
        jr    $ra
        nop
