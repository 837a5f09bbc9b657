# Executes a word no MIPS decoder accepts: an illegal instruction.
main:
        .word 0xfc000000
        jr    $ra
        nop
